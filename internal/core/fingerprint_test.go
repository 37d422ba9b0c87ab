package core

import (
	"context"
	"path/filepath"
	"testing"

	"ocelot/internal/journal"
)

// TestSpecFingerprintPinned pins the spec hash journaled campaigns stamp
// into their begin record. A resume refuses any journal whose hash differs
// from the resuming spec's, so a change to these values strands every
// journal already on disk: they must only move together with a deliberate
// journal format bump.
func TestSpecFingerprintPinned(t *testing.T) {
	fields := pipelineFields(t, 4, 40)
	base := CampaignSpec{RelErrorBound: 1e-3, Workers: 2, GroupParam: 2, TransferStreams: 1}
	cases := []struct {
		name string
		edit func(*CampaignSpec)
		want string
	}{
		{"fixed", func(s *CampaignSpec) {}, "78a2d9f1b0abac5e"},
		{"barrier", func(s *CampaignSpec) { s.Engine = EngineBarrier }, "31d7ca9a24ad7a79"},
		{"sequential", func(s *CampaignSpec) { s.Engine = EngineSequential }, "39e487ae4aa8cc55"},
		{"chunked", func(s *CampaignSpec) { s.ChunkMB = 0.01; s.CompressWorkers = 2 }, "fb4398caa2fc18b"},
		{"adaptive", func(s *CampaignSpec) { s.RelErrorBound = 0; s.Adaptive = true }, "f540d718cdcbbfb8"},
		{"no-integrity", func(s *CampaignSpec) { s.NoIntegrity = true }, "8c1a5c546928f5ef"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.edit(&spec)
			spec.Journal = filepath.Join(t.TempDir(), "run.ocjl")
			if _, err := Run(context.Background(), fields, spec); err != nil {
				t.Fatal(err)
			}
			m, err := journal.Load(spec.Journal)
			if err != nil {
				t.Fatal(err)
			}
			if m.SpecHash != tc.want {
				t.Errorf("spec hash %s, want %s", m.SpecHash, tc.want)
			}
		})
	}
}
