package main

import "testing"

// Every tracked artifact resolves to a registered driver and a distinct
// file, and -only selects by ID case-insensitively.
func TestSelectArtifacts(t *testing.T) {
	all, err := selectArtifacts("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(artifacts) {
		t.Fatalf("selected %d of %d artifacts", len(all), len(artifacts))
	}
	files := map[string]bool{}
	for _, a := range all {
		if a.fn == nil || files[a.file] {
			t.Fatalf("artifact %s: driver bound %v, file %s repeated %v", a.id, a.fn != nil, a.file, files[a.file])
		}
		files[a.file] = true
	}
	some, err := selectArtifacts(" obsoverhead ,ServeFairness")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].file != "BENCH_serve.json" || some[1].file != "BENCH_obs.json" {
		t.Fatalf("-only picked %d artifacts, first %s", len(some), some[0].file)
	}
	for _, bad := range []string{"Table VIII", "nope"} {
		if _, err := selectArtifacts(bad); err == nil {
			t.Errorf("-only %q: want error", bad)
		}
	}
}
