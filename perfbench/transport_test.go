package main

import (
	"context"
	"testing"

	"ocelot/internal/core"
	"ocelot/internal/obs"
	"ocelot/internal/wan"
)

func TestTracedTransportForwards(t *testing.T) {
	link := &wan.Link{Name: "t", BandwidthMBps: 100, Concurrency: 3,
		Faults: &wan.Faults{CorruptProb: 0.999, Seed: 1}}
	tt := &tracedTransport{inner: &core.SimulatedWANTransport{Link: link, Timescale: -1}}
	if got := tt.StreamHint(); got != 3 {
		t.Fatalf("stream hint = %d, want the link's concurrency 3", got)
	}
	tracer := obs.NewTracer()
	ctx, root := tracer.StartSpan(context.Background(), "bench.run")
	data := []byte("archive payload")
	delivered, _, err := tt.SendDelivered(ctx, "g", data, 2)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if string(delivered) == string(data) {
		t.Fatalf("corrupting link delivered the payload intact: the wrapper dropped the delivered bytes")
	}
	if b, _ := tt.shipped(); b != int64(len(data)) {
		t.Fatalf("shipped %d bytes, want %d", b, len(data))
	}
	spans := tracer.Spans()
	if len(spans) != 2 || spans[0].Name != "bench.run" || spans[1].Name != "bench.send" || spans[1].Parent != spans[0].ID {
		t.Fatalf("want one bench.send span under bench.run, got %+v", spans)
	}

	nop := &tracedTransport{inner: core.NopTransport{}}
	if nop.StreamHint() != 0 {
		t.Fatalf("nop transport has no stream hint")
	}
	if _, err := nop.Send(context.Background(), "g", data); err != nil {
		t.Fatal(err)
	}
}
