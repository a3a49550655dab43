package workload_test

import (
	"bytes"
	"reflect"
	"testing"

	"rchdroid/internal/workload"
)

// FuzzWorkloadDecode feeds arbitrary bytes to the log decoder, the
// entry point for logs read from disk or handed over by a client.
// Decoding must never panic, and any log it accepts must survive
// Encode → Decode unchanged: a log whose canonical bytes decode to a
// different workload would replay different traffic than it names.
func FuzzWorkloadDecode(f *testing.F) {
	f.Add(workload.Generate(workload.GenSpec{Seed: 7, Devices: 2, SpanMS: 2_000, EventsPerDevice: 4}).Encode())
	f.Add([]byte(`{"format":"rch-workload","version":1,"devices":1,"span_ms":10,"events":2}` + "\n" +
		`{"at_ms":1,"device":"d","kind":"boot","handler":"guarded","seed":3}` + "\n\n" +
		`{"at_ms":9,"device":"d","kind":"burst","seed":4,"events":6}` + "\n"))
	f.Add([]byte(`{"format":"rch-workload","version":1,"devices":10000000,"span_ms":0,"events":0}` + "\n"))
	f.Add([]byte("not a log\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lg, err := workload.Decode(bytes.NewReader(data))
		if err != nil {
			return // invalid inputs must be rejected, not crash
		}
		back, err := workload.Decode(bytes.NewReader(lg.Encode()))
		if err != nil {
			t.Fatalf("re-encoding of an accepted log does not decode: %v", err)
		}
		if !reflect.DeepEqual(lg, back) {
			t.Fatalf("Encode → Decode changed the log:\n%+v\nvs\n%+v", lg, back)
		}
	})
}
