package main

import (
	"sort"
	"strings"
	"testing"
)

// TestEmergencyOutput pins the example's report. Every number is
// deterministic: the trace, the overlay and the engine are seeded, the
// group-aware counts come from the live source's Results, and the mesh
// bytes from multicasting each released transmission once. Lines are
// compared sorted, independent of print order.
func TestEmergencyOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"chlorine plume: 6000 readings streamed (srcStatistics 0.099)",
		"group-aware output: 145 distinct tuples (O/I 0.024), 88 regions (56 cut)",
		"  fire-prediction        received  120 updates",
		"  responder-safety       received   92 updates",
		"  situation-assessment   received   74 updates",
		"worst mesh-hop delay: 16.624ms (on top of the 3s cut budget at the source)",
		"mesh traffic: 16296 bytes on links, 13053 bytes on the wireless medium",
		"",
		"self-interested filtering would multicast 234 distinct tuples;",
		"group awareness reduced the bandwidth demand to 62% of that.",
	}
	got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("output changed:\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
