package main

import (
	"fmt"
	"strings"
)

// metricDef is one benchmark metric: its name and unit as printed, which
// direction is better, the share by which an end-to-end metric may
// worsen before a change counts as a regression, and — for the record
// later changes cite — the module it measures, the end-to-end metric it
// should move and the workloads on which it should move it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
	layer, moves, on   string
}

// workloadDef names a workload and records why it was chosen.
type workloadDef struct {
	name, why string
}

var workloads = []workloadDef{
	{"cpu-mixed", "closed loop, 1 client, nop link, sz3 1e-3 on 10 fields of 5 apps: codec, pack, integrity, decompress and audit do all the work"},
	{"wan-planned", "closed loop, 1 client, adaptive plan under a PSNR floor over a fixed-rate corrupting simulated WAN with journal: plan, pacing, retransmit and fsync lead"},
	{"serve-tenants", "open loop, 3 tenants 2:1:1 on one scheduler and one shared simulated link: admission, weighted sharing, szx and per-campaign fixed costs lead"},
}

// The end-to-end bounds were set from the spread over seeds on a shared
// 2-core host: timings vary by up to about a tenth between runs there,
// mostly from other load on the host, so they get the largest bound;
// ratio, quality and success are nearly or wholly deterministic per seed.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, layer: "datagen, quality, serve"},
	{name: "campaign_s_p50", unit: "s", better: "lower", bound: 0.25, layer: "core"},
	{name: "campaign_s_p90", unit: "s", better: "lower", bound: 0.25, layer: "core"},
	{name: "effective_mbps", unit: "MB/s", better: "higher", bound: 0.25, layer: "core"},
	{name: "compression_ratio", unit: "ratio", better: "higher", bound: 0.15, layer: "sz, szx, planner"},
	{name: "psnr_min_db", unit: "dB", better: "higher", bound: 0.05, layer: "sz, szx, planner"},
	{name: "success_rate", unit: "frac", better: "higher", bound: 0.05, layer: "all"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2, layer: "all"},
}

var perLayer = []metricDef{
	{name: "datagen.generate_s", unit: "s", better: "lower", layer: "datagen", moves: "setup_s", on: "all"},
	{name: "sz.compress_mbps", unit: "MB/s", better: "higher", layer: "sz", moves: "campaign_s_p50, effective_mbps", on: "cpu-mixed"},
	{name: "sz.decompress_mbps", unit: "MB/s", better: "higher", layer: "sz", moves: "campaign_s_p50, effective_mbps", on: "cpu-mixed"},
	{name: "sz.quantize_mbps", unit: "MB/s", better: "higher", layer: "sz", moves: "campaign_s_p50, effective_mbps", on: "cpu-mixed"},
	{name: "sz.compress_allocs_per_op", unit: "count", better: "lower", layer: "sz", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "sz.compress_vs_ref", unit: "ratio", better: "higher", layer: "sz", moves: "campaign_s_p50, effective_mbps", on: "cpu-mixed"},
	{name: "sz.decompress_vs_ref", unit: "ratio", better: "higher", layer: "sz", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "sz.quantize_vs_ref", unit: "ratio", better: "higher", layer: "sz", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "huffman.encode_msyms", unit: "Msym/s", better: "higher", layer: "huffman", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "huffman.decode_msyms", unit: "Msym/s", better: "higher", layer: "huffman", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "huffman.encode_vs_ref", unit: "ratio", better: "higher", layer: "huffman", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "huffman.decode_vs_ref", unit: "ratio", better: "higher", layer: "huffman", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "lossless.deflate_mbps", unit: "MB/s", better: "higher", layer: "lossless", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "lossless.deflate_vs_ref", unit: "ratio", better: "higher", layer: "lossless", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "szx.compress_mbps", unit: "MB/s", better: "higher", layer: "szx", moves: "campaign_s_p50", on: "serve-tenants"},
	{name: "szx.decompress_mbps", unit: "MB/s", better: "higher", layer: "szx", moves: "campaign_s_p50", on: "serve-tenants"},
	{name: "szx.compress_vs_ref", unit: "ratio", better: "higher", layer: "szx", moves: "campaign_s_p50", on: "serve-tenants"},
	{name: "szx.decompress_vs_ref", unit: "ratio", better: "higher", layer: "szx", moves: "campaign_s_p50", on: "serve-tenants"},
	{name: "grouping.pack_mbps", unit: "MB/s", better: "higher", layer: "grouping", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "grouping.unpack_mbps", unit: "MB/s", better: "higher", layer: "grouping", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "integrity.wrap_mbps", unit: "MB/s", better: "higher", layer: "integrity", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "integrity.verify_mbps", unit: "MB/s", better: "higher", layer: "integrity", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "integrity.retransmits", unit: "count", better: "lower", layer: "integrity", moves: "campaign_s_p90", on: "wan-planned"},
	{name: "audit.maxabs_mbps", unit: "MB/s", better: "higher", layer: "metrics", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "journal.append_ms_p50", unit: "ms", better: "lower", layer: "journal", moves: "campaign_s_p90", on: "wan-planned, serve-tenants"},
	{name: "journal.append_ms_p90", unit: "ms", better: "lower", layer: "journal", moves: "campaign_s_p90", on: "wan-planned, serve-tenants"},
	{name: "wan.send_s_p50", unit: "s", better: "lower", layer: "wan, core transport", moves: "campaign_s_p50, effective_mbps", on: "wan-planned, serve-tenants"},
	{name: "wan.link_util", unit: "frac", better: "higher", layer: "wan, core transport", moves: "campaign_s_p50, effective_mbps", on: "wan-planned, serve-tenants"},
	{name: "core.compress_s", unit: "s", better: "lower", layer: "core", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "core.pack_s", unit: "s", better: "lower", layer: "core", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "core.transfer_s", unit: "s", better: "lower", layer: "core", moves: "campaign_s_p50", on: "wan-planned"},
	{name: "core.decompress_s", unit: "s", better: "lower", layer: "core", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "core.overlap_s", unit: "s", better: "higher", layer: "core", moves: "campaign_s_p50", on: "wan-planned"},
	{name: "core.bound_frac", unit: "ratio", better: "lower", layer: "core", moves: "campaign_s_p50", on: "cpu-mixed, wan-planned"},
	{name: "planner.build_s", unit: "s", better: "lower", layer: "planner", moves: "campaign_s_p50", on: "wan-planned"},
	{name: "quality.estimate_ms", unit: "ms", better: "lower", layer: "quality", moves: "campaign_s_p50", on: "wan-planned"},
	{name: "quality.train_s", unit: "s", better: "lower", layer: "quality", moves: "setup_s", on: "wan-planned"},
	{name: "serve.queued_s_p50", unit: "s", better: "lower", layer: "serve", moves: "campaign_s_p90", on: "serve-tenants"},
	{name: "serve.queued_s_p90", unit: "s", better: "lower", layer: "serve", moves: "campaign_s_p90", on: "serve-tenants"},
	{name: "serve.submit_us", unit: "us", better: "lower", layer: "serve", moves: "campaign_s_p90", on: "serve-tenants"},
	{name: "serve.tenant_p50_s.climate", unit: "s", better: "lower", layer: "serve", moves: "campaign_s_p90", on: "serve-tenants"},
	{name: "serve.tenant_p50_s.cosmology", unit: "s", better: "lower", layer: "serve", moves: "campaign_s_p90", on: "serve-tenants"},
	{name: "serve.tenant_p50_s.seismic", unit: "s", better: "lower", layer: "serve", moves: "campaign_s_p90", on: "serve-tenants"},
	{name: "self.campaign_s", unit: "s", better: "lower", layer: "core", moves: "campaign_s_p50", on: "all"},
	{name: "self.compress_s", unit: "s", better: "lower", layer: "core, sz, szx", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "self.pack_s", unit: "s", better: "lower", layer: "core, grouping, integrity", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "self.transfer_s", unit: "s", better: "lower", layer: "core, sentinel", moves: "campaign_s_p90", on: "wan-planned"},
	{name: "self.send_s", unit: "s", better: "lower", layer: "core", moves: "campaign_s_p50", on: "wan-planned, serve-tenants"},
	{name: "self.decompress_s", unit: "s", better: "lower", layer: "core, integrity", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "self.verify_s", unit: "s", better: "lower", layer: "core, sz, metrics", moves: "campaign_s_p50", on: "cpu-mixed"},
	{name: "obs.trace_overhead_frac", unit: "frac", better: "lower", layer: "obs", moves: "none (health)", on: "all"},
	{name: "bench.gen_lag_s_max", unit: "s", better: "lower", layer: "bench", moves: "none (health)", on: "all"},
	{name: "bench.cpu_s_per_campaign", unit: "s", better: "lower", layer: "bench", moves: "none (health)", on: "all"},
	{name: "host.gomaxprocs", unit: "count", better: "higher", layer: "host", moves: "none (context)", on: "all"},
	{name: "host.nproc", unit: "count", better: "higher", layer: "host", moves: "none (context)", on: "all"},
}

// describe renders the workloads and the metric → layer → workload table
// as markdown; README.md carries the same text, which a test checks.
func describe() string {
	var b strings.Builder
	b.WriteString("| workload | why |\n|---|---|\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "| `%s` | %s |\n", w.name, w.why)
	}
	b.WriteString("\n| end-to-end metric | unit | better | bound | layers |\n|---|---|---|---|---|\n")
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %g | %s |\n", d.name, d.unit, d.better, d.bound, d.layer)
	}
	b.WriteString("\n| per-layer metric | unit | better | module | moves | on |\n|---|---|---|---|---|---|\n")
	for _, d := range perLayer {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", d.name, d.unit, d.better, d.layer, d.moves, d.on)
	}
	return b.String()
}
