// Seismic-RTM: parallel compression scaling on reverse-time-migration
// wavefield snapshots (the paper's Fig 9 scenario). Shows how worker count
// cuts compression wall time in a real campaign, and the simulated
// node-scaling curve including the decompression I/O-contention cliff.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"ocelot"
)

func main() {
	// Generate a batch of RTM snapshots (expanding wavefronts).
	snaps := []string{"snap-0200", "snap-0594", "snap-1048", "snap-1400",
		"snap-1800", "snap-1982", "snap-2600", "snap-3200"}
	fields := make([]*ocelot.Field, 0, len(snaps))
	for _, s := range snaps {
		f, err := ocelot.GenerateField("RTM", s, 12, 1)
		if err != nil {
			log.Fatal(err)
		}
		fields = append(fields, f)
	}
	fmt.Printf("%d RTM snapshots, %v each\n", len(fields), fields[0].Dims)

	// Real parallel compression at increasing worker counts: one in-process
	// campaign per count, timing its compression stage. The barrier engine
	// keeps decompression from competing with compression for cores.
	maxWorkers := runtime.GOMAXPROCS(0)
	for workers := 1; workers <= maxWorkers; workers *= 2 {
		res, err := ocelot.Run(context.Background(), fields, ocelot.CampaignSpec{
			RelErrorBound: 1e-4,
			Workers:       workers,
			Engine:        ocelot.EngineBarrier,
			Transport:     ocelot.NopTransport{},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d workers: compress %.2fs (ratio %.1f)\n", workers, res.CompressSec, res.Ratio)
	}

	// Simulated node-scaling on Anvil (Fig 9 shape).
	anvil := ocelot.StandardMachines()["Anvil"]
	sizes := make([]int64, 3601)
	for i := range sizes {
		sizes[i] = 189e6
	}
	fmt.Println("\nsimulated 682GB RTM campaign on Anvil (128 cores/node):")
	fmt.Printf("  %5s %14s %16s\n", "nodes", "compress (s)", "decompress (s)")
	for _, n := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("  %5d %14.1f %16.1f\n", n,
			anvil.CompressTime(sizes, n), anvil.DecompressTime(sizes, n))
	}
	fmt.Println("  (note the decompression slowdown beyond 4 nodes: PFS write contention)")
}
