// Quality-advisor: the paper's capability #1. Train the compression-quality
// predictor on a corpus, then — without compressing — rank candidate error
// bounds for a new field and pick the most aggressive setting that still
// meets a PSNR target, finally validating the choice with a real run.
package main

import (
	"fmt"
	"log"

	"ocelot"
	"ocelot/internal/metrics"
	"ocelot/internal/sz"
)

func main() {
	// Train on a mixed corpus (climate + hydrodynamics + hurricane).
	var corpus []*ocelot.Field
	for _, spec := range []struct {
		app    string
		fields []string
	}{
		{"CESM", []string{"TMQ", "CLDHGH", "FLDSC", "LHFLX", "PSL", "TREFHT"}},
		{"Miranda", []string{"density", "velocityx", "pressure"}},
		{"ISABEL", []string{"Pf48", "QVAPORf48", "Wf48"}},
	} {
		for _, name := range spec.fields {
			f, err := ocelot.GenerateField(spec.app, name, 28, 7)
			if err != nil {
				log.Fatal(err)
			}
			corpus = append(corpus, f)
		}
	}
	model, err := ocelot.TrainQualityModel(corpus, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained quality model on %d fields\n\n", len(corpus))

	// A new, unseen field arrives.
	target, err := ocelot.GenerateField("CESM", "ICEFRAC", 28, 99)
	if err != nil {
		log.Fatal(err)
	}
	const psnrTarget = 60.0 // paper: PSNR > 50 dB means no visible difference
	fmt.Printf("advising for %s with PSNR target %.0f dB:\n", target.ID(), psnrTarget)
	fmt.Printf("  %-8s %10s %10s %10s\n", "rel-eb", "est ratio", "est PSNR", "est time")

	best := -1.0
	for _, eb := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		est, err := ocelot.EstimateQuality(model, target.Data, target.Dims, eb)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if est.PSNR >= psnrTarget && eb > best {
			best = eb
			marker = "  <- candidate"
		}
		fmt.Printf("  %-8.0e %10.1f %10.1f %9.3fs%s\n", eb, est.Ratio, est.PSNR, est.Seconds, marker)
	}
	if best < 0 {
		log.Fatal("no setting meets the PSNR target")
	}
	fmt.Printf("\nselected rel-eb = %.0e; validating with a real compression...\n", best)

	cfg := sz.DefaultConfig(best)
	cfg.BoundMode = sz.BoundRelative
	stream, _, err := sz.Compress(target.Data, target.Dims, cfg)
	if err != nil {
		log.Fatal(err)
	}
	recon, _, err := sz.Decompress(stream)
	if err != nil {
		log.Fatal(err)
	}
	psnr, err := metrics.PSNR(target.Data, recon)
	if err != nil {
		log.Fatal(err)
	}
	ratio := ocelot.CompressionRatio(target.RawBytes(), len(stream))
	fmt.Printf("actual: ratio %.1f, PSNR %.1f dB (target %.0f)\n", ratio, psnr, psnrTarget)
}
