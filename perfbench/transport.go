package main

import (
	"context"
	"sync"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/obs"
)

// tracedTransport forwards every send to an inner transport and records a
// bench.send span around it on whatever tracer the send's context
// carries, plus the bytes shipped and the span of time sends covered.
//
// The engine type-asserts its transport for delivered payloads, weighted
// sends and a stream hint, so the wrapper forwards all three: without
// them a traced campaign would run with different stream counts, drop
// its fair-share weight and never see in-flight corruption — silently a
// different campaign from the untraced one it is compared with.
type tracedTransport struct {
	inner core.Transport

	mu          sync.Mutex
	bytes       int64
	first, last time.Time
}

// Name implements core.Transport.
func (t *tracedTransport) Name() string { return t.inner.Name() }

// StreamHint forwards the inner transport's hint (0 = none).
func (t *tracedTransport) StreamHint() int {
	if h, ok := t.inner.(interface{ StreamHint() int }); ok {
		return h.StreamHint()
	}
	return 0
}

// Send implements core.Transport.
func (t *tracedTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	return t.SendWeighted(ctx, name, data, 0)
}

// SendWeighted implements core.WeightedTransport.
func (t *tracedTransport) SendWeighted(ctx context.Context, name string, data []byte, weight float64) (float64, error) {
	_, sec, err := t.SendDelivered(ctx, name, data, weight)
	return sec, err
}

// SendDelivered implements core.DeliveredTransport, dispatching to the
// inner transport exactly as the engine would have.
func (t *tracedTransport) SendDelivered(ctx context.Context, name string, data []byte, weight float64) ([]byte, float64, error) {
	ctx, span := obs.StartSpan(ctx, "bench.send", obs.Int("bytes", int64(len(data))))
	defer span.End()
	start := time.Now()
	delivered, sec, err := data, 0.0, error(nil)
	switch in := t.inner.(type) {
	case core.DeliveredTransport:
		delivered, sec, err = in.SendDelivered(ctx, name, data, weight)
	case core.WeightedTransport:
		if weight > 0 {
			sec, err = in.SendWeighted(ctx, name, data, weight)
		} else {
			sec, err = in.Send(ctx, name, data)
		}
	default:
		sec, err = in.Send(ctx, name, data)
	}
	if err != nil {
		return nil, sec, err
	}
	end := time.Now()
	t.mu.Lock()
	t.bytes += int64(len(data))
	if t.first.IsZero() || start.Before(t.first) {
		t.first = start
	}
	if end.After(t.last) {
		t.last = end
	}
	t.mu.Unlock()
	return delivered, sec, nil
}

// shipped reports the bytes delivered and the wall span from the first
// send's start to the last send's end.
func (t *tracedTransport) shipped() (int64, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.first.IsZero() {
		return 0, 0
	}
	return t.bytes, t.last.Sub(t.first).Seconds()
}
