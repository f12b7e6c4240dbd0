package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeOracle is what encoding/json makes of a body: the InvokeRequest, and
// separately the last "inputs" member decoded into a fresh matrix.
// encoding/json decodes a repeated key in place, so a null number inside a
// repeated inputs array would read whatever the earlier array left in that
// slot; the codec gives every inputs member a fresh matrix (null reads 0),
// which is what both agree on whenever the key appears once.
func decodeOracle(body []byte) (InvokeRequest, [][]float64, error) {
	var req InvokeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, nil, err
	}
	var raw struct {
		Inputs json.RawMessage `json:"inputs"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return req, nil, fmt.Errorf("oracle: %v", err)
	}
	var inputs [][]float64
	if raw.Inputs != nil {
		if err := json.Unmarshal(raw.Inputs, &inputs); err != nil {
			return req, nil, fmt.Errorf("oracle: %v", err)
		}
	}
	return req, inputs, nil
}

// sameMatrix compares two matrices bit for bit, nil rows and nil-ness of
// the matrix included.
func sameMatrix(a, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// fuzzCodec is reused across fuzz iterations, so every decode runs on state
// a different body left behind, as a pooled codec does.
var fuzzCodec = new(invokeCodec)

// FuzzInvokeCodec holds the /v1/invoke codec to encoding/json. The decoder
// must accept exactly the bodies json.Unmarshal accepts into an
// InvokeRequest and decode the same strings, bit-identical numbers and the
// same null rows; PeekInvoke must agree with json.Unmarshal into the
// router's two routing fields; and the encoder must write exactly
// json.Marshal's bytes plus a newline, or fail exactly when it fails (a NaN
// or ±Inf).
func FuzzInvokeCodec(f *testing.F) {
	for _, body := range []string{
		`{"tenant":"acme","kernel":"synth","inputs":[[1,2,0.5],[-0,1e-7,1e21]]}`,
		`{"TENANT":"a","Kernel":"k","inputs":[[1],null,[]],"deadlineMs":5,"target":0.25}`,
		`{"kernel":"k","inputs":null,"mode":"toq","checker":"tree"}`,
		`{"\u212Aernel":"k","x":{"y":[true,false,null,"s\u00e9\ud800"]},"z":-1.5E+3}`,
		`{"tenant":"<>&\u2028","kernel":"\n\t\"\\/"}`,
		"{\"tenant\":\"\xff\xfe bad utf8\"}",
		`{"inputs":[[1,null,2]],"inputs":[[3]]}`,
		`{"deadlineMs":1.5}`,
		`{"inputs":[[01]]}`,
		`{"inputs":[[1e400]]}`,
		`{"inputs":[["1"]]}`,
		`null`,
		`{} x`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(body), "", 0.0)
	}
	f.Add([]byte(`{}`), "<>&", 1e-7)
	f.Add([]byte(`{}`), "\xff\xfe\xfd", 1e21)
	f.Add([]byte(`{}`), "line\u2028para\u2029", 1e20)
	f.Add([]byte(`{}`), "\x00\x1f\x7f", 5e-324)
	f.Add([]byte(`{}`), "\u00e9", math.MaxFloat64)
	f.Add([]byte(`{}`), "", math.Copysign(0, -1))
	f.Add([]byte(`{}`), "", math.Inf(1))
	f.Add([]byte(`{}`), "", math.NaN())
	f.Fuzz(func(t *testing.T, body []byte, s string, x float64) {
		want, wantIn, wantErr := decodeOracle(body)
		err := fuzzCodec.decode(bytes.NewReader(body), int64(len(body)))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode %q: err %v, encoding/json err %v", body, err, wantErr)
		}
		got := fuzzCodec.req
		if err == nil {
			if got.Tenant != want.Tenant || got.Kernel != want.Kernel || got.Checker != want.Checker ||
				got.Mode != want.Mode || got.DeadlineMs != want.DeadlineMs ||
				math.Float64bits(got.Target) != math.Float64bits(want.Target) {
				t.Fatalf("decode %q:\n got %+v\nwant %+v", body, got, want)
			}
			if !sameMatrix(got.Inputs, wantIn) {
				t.Fatalf("decode %q: inputs %v, want %v", body, got.Inputs, wantIn)
			}
		}

		var peek struct {
			Tenant     string `json:"tenant"`
			DeadlineMs int64  `json:"deadlineMs"`
		}
		peekErr := json.Unmarshal(body, &peek)
		tenant, deadline, err := PeekInvoke(body)
		if (err == nil) != (peekErr == nil) {
			t.Fatalf("peek %q: err %v, encoding/json err %v", body, err, peekErr)
		}
		if err == nil && (tenant != peek.Tenant || deadline != peek.DeadlineMs) {
			t.Fatalf("peek %q = %q/%d, want %q/%d", body, tenant, deadline, peek.Tenant, peek.DeadlineMs)
		}

		var outs [][]float64
		if wantErr == nil {
			outs = got.Inputs
		}
		outs = append(outs, []float64{x, -x}, nil)
		resp := InvokeResponse{
			Tenant: s, Kernel: string(body), Outputs: outs,
			Elements: len(outs), Fixed: int(got.DeadlineMs), DegradedElements: -len(s),
			Degraded: len(body)%2 == 0, Threshold: x, Checker: s,
		}
		enc, encErr := appendResponse(nil, &resp)
		wantEnc, marshalErr := json.Marshal(resp)
		if (encErr == nil) != (marshalErr == nil) {
			t.Fatalf("encode: err %v, json.Marshal err %v", encErr, marshalErr)
		}
		if encErr != nil {
			if encErr.Error() != marshalErr.Error() {
				t.Fatalf("encode error %q, json.Marshal error %q", encErr, marshalErr)
			}
			return
		}
		if wantEnc = append(wantEnc, '\n'); !bytes.Equal(enc, wantEnc) {
			t.Fatalf("encode:\n got %s\nwant %s", enc, wantEnc)
		}
	})
}

// TestInvokeCodecTable pins the codec's edge cases through the real handler,
// each also checked against encoding/json's verdict on the same body.
func TestInvokeCodecTable(t *testing.T) {
	h := fuzzHandler(t)
	// decodes is encoding/json's verdict on the body, which the codec must
	// share; status is the handler's answer.
	cases := []struct {
		name, body string
		decodes    bool
		status     int
		tenant     string // checked on 200
	}{
		{"leading zero", `{"kernel":"synth","inputs":[[01,2,0]]}`, false, 400, ""},
		{"bare decimal point", `{"kernel":"synth","inputs":[[1.,2,0]]}`, false, 400, ""},
		{"lone minus", `{"kernel":"synth","inputs":[[-,2,0]]}`, false, 400, ""},
		{"plus sign", `{"kernel":"synth","inputs":[[+1,2,0]]}`, false, 400, ""},
		{"NaN", `{"kernel":"synth","inputs":[[NaN,2,0]]}`, false, 400, ""},
		{"overflow is not Inf", `{"kernel":"synth","inputs":[[1e400,2,0]]}`, false, 400, ""},
		{"string for a number", `{"kernel":"synth","inputs":[["1",2,0]]}`, false, 400, ""},
		{"fractional deadline", `{"kernel":"synth","inputs":[[1,2,0]],"deadlineMs":1.5}`, false, 400, ""},
		{"exponent deadline", `{"kernel":"synth","inputs":[[1,2,0]],"deadlineMs":1e3}`, false, 400, ""},
		{"folded keys", `{"TENANT":"acme","Kernel":"synth","INPUTS":[[1,2,0]]}`, true, 200, "acme"},
		{"long s folds to S", "{\"tenant\":\"acme\",\"kernel\":\"synth\",\"inputs\":[[1,2,0]],\"deadlineM\u017f\":60000}", true, 200, "acme"},
		{"Kelvin sign folds to K", "{\"\u212Aernel\":\"synth\",\"inputs\":[[1,2,0]]}", true, 200, "default"},
		{"escaped key", `{"\u0074enant":"acme","kernel":"synth","inputs":[[1,2,0]]}`, true, 200, "acme"},
		{"unknown keys of every type", `{"o":{"a":[1,{"b":null}]},"a":[true,false],"s":"x\"y","n":-1.5e3,` +
			`"z":null,"t":true,"f":false,"kernel":"synth","inputs":[[1,2,0]]}`, true, 200, "default"},
		{"null scalars keep their value", `{"tenant":"acme","tenant":null,"kernel":"synth","target":null,` +
			`"deadlineMs":null,"inputs":[[1,null,0]]}`, true, 200, "acme"},
		{"negative zero", `{"kernel":"synth","inputs":[[-0,-0.0,0]]}`, true, 200, "default"},
		{"inputs null", `{"kernel":"synth","inputs":null}`, true, 400, ""},
		{"null row", `{"kernel":"synth","inputs":[null]}`, true, 400, ""},
		{"empty inputs", `{"kernel":"synth","inputs":[]}`, true, 400, ""},
		{"null body", `null`, true, 400, ""},
		{"array body", `[[1,2,0]]`, false, 400, ""},
		{"trailing whitespace", "{\"kernel\":\"synth\",\"inputs\":[[1,2,0]]} \r\n\t", true, 200, "default"},
		{"trailing bytes", `{"kernel":"synth","inputs":[[1,2,0]]} x`, false, 400, ""},
		{"second object", `{"kernel":"synth","inputs":[[1,2,0]]}{}`, false, 400, ""},
		{"trailing comma", `{"kernel":"synth","inputs":[[1,2,0],]}`, false, 400, ""},
		{"unterminated", `{"kernel":"synth","inputs":[[1,2,0]]`, false, 400, ""},
		{"control byte in string", "{\"kernel\":\"syn\x01th\",\"inputs\":[[1,2,0]]}", false, 400, ""},
		{"bad escape", `{"kernel":"synth\q","inputs":[[1,2,0]]}`, false, 400, ""},
		{"too deep", `{"x":` + strings.Repeat("[", maxNestingDepth) + strings.Repeat("]", maxNestingDepth) +
			`,"kernel":"synth","inputs":[[1,2,0]]}`, false, 400, ""},
		{"deepest allowed", `{"x":` + strings.Repeat("[", maxNestingDepth-1) + strings.Repeat("]", maxNestingDepth-1) +
			`,"kernel":"synth","inputs":[[1,2,0]]}`, true, 200, "default"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := json.Unmarshal([]byte(tc.body), new(InvokeRequest)); (err == nil) != tc.decodes {
				t.Fatalf("encoding/json err %v, want decodes=%v", err, tc.decodes)
			}
			if err := new(invokeCodec).decode(strings.NewReader(tc.body), -1); (err == nil) != tc.decodes {
				t.Fatalf("decode err %v, want decodes=%v", err, tc.decodes)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/invoke", strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			if tc.status != 200 {
				return
			}
			var resp InvokeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Tenant != tc.tenant || len(resp.Outputs) != 1 {
				t.Fatalf("reply tenant %q with %d outputs, want %q with 1", resp.Tenant, len(resp.Outputs), tc.tenant)
			}
		})
	}
}

// TestInvokeNonFiniteOutputIs500: a kernel output that overflows to +Inf
// cannot be written as JSON; the reply is the parseable "not representable"
// 500, never a truncated 200.
func TestInvokeNonFiniteOutputIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	fuzzHandler(t).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/invoke",
		strings.NewReader(`{"kernel":"synth","inputs":[[1e308,0,0]]}`)))
	var er errorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &er) != nil ||
		!strings.Contains(er.Error, "not representable") || !strings.Contains(er.Error, "+Inf") {
		t.Fatalf("status %d body %q, want the not-representable 500", rec.Code, rec.Body.String())
	}
}

// TestInvokeBodyTooLarge: one byte past maxRequestBytes is a 413, which a
// client can tell apart from malformed JSON; a body at the limit is read
// (and here rejected as JSON, a 400).
func TestInvokeBodyTooLarge(t *testing.T) {
	h := fuzzHandler(t)
	for _, tc := range []struct {
		size   int
		status int
	}{{maxRequestBytes + 1, http.StatusRequestEntityTooLarge}, {maxRequestBytes, http.StatusBadRequest}} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/invoke", bytes.NewReader(bytes.Repeat([]byte{'['}, tc.size))))
		var er errorResponse
		if rec.Code != tc.status || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
			t.Fatalf("%d-byte body: status %d body %q, want %d", tc.size, rec.Code, rec.Body.String(), tc.status)
		}
	}
}

// codecBody is a /v1/invoke body of n three-wide rows of varied numbers.
func codecBody(tb testing.TB, n int) []byte {
	tb.Helper()
	req := InvokeRequest{Tenant: "acme", Kernel: "synth", Inputs: make([][]float64, n)}
	for i := range req.Inputs {
		v := float64(i)
		req.Inputs[i] = []float64{v*0.731 - 17.25, 1 / (v + 3), -v * 1e-9}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// codecRoundTrip decodes body into c and encodes its inputs back as a reply,
// the codec's whole share of one request.
func codecRoundTrip(c *invokeCodec, rd *bytes.Reader, body []byte, resp *InvokeResponse) error {
	rd.Reset(body)
	if err := c.decode(rd, int64(len(body))); err != nil {
		return err
	}
	resp.Outputs = c.req.Inputs
	out, err := appendResponse(c.buf[:0], resp)
	c.buf = out[:0]
	return err
}

// TestInvokeCodecAllocsFlat: on a warmed codec, decoding plus encoding a
// request allocates the same number of times at 1, 64 and 1024 elements —
// nothing per row or per number.
func TestInvokeCodecAllocsFlat(t *testing.T) {
	var counts []float64
	for _, n := range []int{1, 64, 1024} {
		body := codecBody(t, n)
		c, rd := new(invokeCodec), new(bytes.Reader)
		resp := InvokeResponse{Tenant: "acme", Kernel: "synth", Elements: n, Checker: "tree"}
		if err := codecRoundTrip(c, rd, body, &resp); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := codecRoundTrip(c, rd, body, &resp); err != nil {
				t.Fatal(err)
			}
		})
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("allocs per decode+encode at 1/64/1024 elements = %v, want one flat count", counts)
	}
}

// BenchmarkInvokeCodec times the codec's decode and encode halves on a warmed
// codec, per request and per element.
func BenchmarkInvokeCodec(b *testing.B) {
	for _, n := range []int{1, 64, 1024} {
		body := codecBody(b, n)
		c, rd := new(invokeCodec), new(bytes.Reader)
		resp := InvokeResponse{Tenant: "acme", Kernel: "synth", Elements: n, Checker: "tree"}
		if err := codecRoundTrip(c, rd, body, &resp); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("decode/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				if err := c.decode(rd, int64(len(body))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
		outputs := c.req.Inputs
		b.Run(fmt.Sprintf("encode/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			resp.Outputs = outputs
			buf := make([]byte, 0, 2*len(body))
			for i := 0; i < b.N; i++ {
				out, err := appendResponse(buf[:0], &resp)
				if err != nil {
					b.Fatal(err)
				}
				buf = out
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}
