package main

import (
	"sort"

	"rumba/internal/trace"
)

// interval is a half-open [start, end) stretch of one trace's clock, in ns.
type interval struct{ start, end int64 }

// union merges intervals into a sorted, disjoint set.
func union(xs []interval) []interval {
	s := append([]interval(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a].start < s[b].start })
	var out []interval
	for _, x := range s {
		if x.end <= x.start {
			continue
		}
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			if x.end > out[n-1].end {
				out[n-1].end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// length is the total time a disjoint set covers.
func length(set []interval) int64 {
	var n int64
	for _, x := range set {
		n += x.end - x.start
	}
	return n
}

// subtract returns a \ b for sorted disjoint sets.
func subtract(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, x := range a {
		cur := x.start
		for j < len(b) && b[j].end <= cur {
			j++
		}
		for k := j; k < len(b) && b[k].start < x.end; k++ {
			if b[k].start > cur {
				out = append(out, interval{cur, b[k].start})
			}
			if b[k].end > cur {
				cur = b[k].end
			}
		}
		if cur < x.end {
			out = append(out, interval{cur, x.end})
		}
	}
	return out
}

func intersect(a, b []interval) []interval { return subtract(a, subtract(a, b)) }

// streamLayers is the order in which a stream span's time is attributed:
// an instant covered by several spans counts for the first layer in this
// list that covers it, so the parts of a stream span sum to its length even
// though recovery and merging overlap detection.
var streamLayers = []string{"accel.invoke", "checker.predict", "exec.recover", "merge.commit", "stream.chunk"}

// nodeSplit is one request's node-side time, by layer, in ns.
type nodeSplit struct {
	admission  int64
	rest       int64            // root - admission - stream: reply building and encoding
	streamSelf int64            // stream minus the union of its children
	parts      map[string]int64 // exclusive time per streamLayers entry
	mergeBusy  int64            // union of merge.commit, overlap included
	recoverSum int64            // summed exec.recover durations
	recovers   int
}

// splitTrace accounts for one node trace: an "invoke" root whose children are
// "admission" and "stream", the stream's children being chunks (with their
// accelerator and checker spans), recoveries and merges.
func splitTrace(s trace.Snapshot) (nodeSplit, bool) {
	ns := nodeSplit{parts: map[string]int64{}}
	if len(s.Spans) == 0 || s.Spans[0].Name != "invoke" {
		return ns, false
	}
	byName := map[string][]interval{}
	streamID := 0
	var streamSpan interval
	for _, sp := range s.Spans[1:] {
		iv := interval{sp.Start, sp.End}
		switch {
		case sp.Name == "admission" && sp.Parent == 1:
			ns.admission += iv.end - iv.start
		case sp.Name == "stream" && sp.Parent == 1:
			streamID, streamSpan = sp.ID, iv
		}
		byName[sp.Name] = append(byName[sp.Name], iv)
		if sp.Name == "exec.recover" {
			ns.recoverSum += iv.end - iv.start
			ns.recovers++
		}
	}
	if streamID == 0 {
		return ns, false
	}
	ns.rest = s.DurationNs - ns.admission - (streamSpan.end - streamSpan.start)
	whole := []interval{streamSpan}
	var covered []interval
	for _, name := range streamLayers {
		u := intersect(union(byName[name]), whole)
		ns.parts[name] = length(subtract(u, covered))
		covered = union(append(covered, u...))
	}
	ns.streamSelf = length(subtract(whole, covered))
	ns.mergeBusy = length(union(byName["merge.commit"]))
	return ns, true
}
