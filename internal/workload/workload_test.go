package workload

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestEncodeDecodeRoundTrip: a generated log survives encode → decode →
// encode with byte-identical output.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	lg := Generate(GenSpec{Seed: 7, Devices: 4, SpanMS: 10_000, EventsPerDevice: 10})
	b1 := lg.Encode()
	back, err := Decode(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b2 := back.Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatal("encode→decode→encode is not byte-identical")
	}
}

// TestDecodeStrictness: every contract violation is an explicit error,
// never a guess.
func TestDecodeStrictness(t *testing.T) {
	lg := Generate(GenSpec{Seed: 7, Devices: 2, SpanMS: 5_000, EventsPerDevice: 6})
	good := string(lg.Encode())
	lines := strings.SplitAfter(strings.TrimRight(good, "\n"), "\n")

	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "empty log"},
		{"wrong format", `{"format":"other","version":1}` + "\n", `format "other"`},
		{"future version", `{"format":"rch-workload","version":99,"devices":0,"span_ms":1,"events":0}` + "\n", "version 99"},
		{"garbage header", "not json\n", "header line"},
		{"count mismatch", lines[0] + strings.Join(lines[1:len(lines)-1], ""), "header promises"},
		{"unknown kind", `{"format":"rch-workload","version":1,"devices":1,"span_ms":10,"events":1}` + "\n" +
			`{"at_ms":1,"device":"d","kind":"warp"}` + "\n", `unknown kind "warp"`},
		{"drive before boot", `{"format":"rch-workload","version":1,"devices":1,"span_ms":10,"events":1}` + "\n" +
			`{"at_ms":1,"device":"d","kind":"rotate"}` + "\n", "before its boot"},
		{"unsorted", `{"format":"rch-workload","version":1,"devices":1,"span_ms":10,"events":2}` + "\n" +
			`{"at_ms":5,"device":"d","kind":"boot"}` + "\n" +
			`{"at_ms":1,"device":"d","kind":"rotate"}` + "\n", "not sorted"},
		{"past span", `{"format":"rch-workload","version":1,"devices":1,"span_ms":10,"events":1}` + "\n" +
			`{"at_ms":99,"device":"d","kind":"boot"}` + "\n", "past span"},
		{"double boot", `{"format":"rch-workload","version":1,"devices":1,"span_ms":10,"events":2}` + "\n" +
			`{"at_ms":1,"device":"d","kind":"boot"}` + "\n" +
			`{"at_ms":2,"device":"d","kind":"boot"}` + "\n", "boots twice"},
	}
	for _, tc := range cases {
		_, err := Decode(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	if _, err := Decode(strings.NewReader(good)); err != nil {
		t.Fatalf("control: the unmodified log must decode: %v", err)
	}
}

// TestDecodeHeaderCannotSizeAllocations: the header's device count is
// untrusted input, so a tiny log promising ten million devices must be
// rejected without first allocating for them.
func TestDecodeHeaderCannotSizeAllocations(t *testing.T) {
	const input = `{"format":"rch-workload","version":1,"devices":10000000,"span_ms":0,"events":0}` + "\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(strings.NewReader(input))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "header promises 10000000 devices") {
		t.Fatalf("err = %v, want the device-count mismatch", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting an %d-byte log allocated %d bytes", len(input), grew)
	}
}

// TestGenerateByteReproducible: the generator is a pure function of its
// spec, down to the bytes; the seed actually matters.
func TestGenerateByteReproducible(t *testing.T) {
	spec := GenSpec{Seed: 42, Devices: 8, SpanMS: 60_000, EventsPerDevice: 40}
	a := Generate(spec).Encode()
	b := Generate(spec).Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("same spec generated different bytes")
	}
	spec.Seed = 43
	if bytes.Equal(a, Generate(spec).Encode()) {
		t.Fatal("different seeds generated identical bytes")
	}
}

// TestGenerateValidAndDiurnal: generated logs satisfy the format
// contract and actually carry the diurnal shape — the evening peak
// slice is visibly denser than the night trough.
func TestGenerateValidAndDiurnal(t *testing.T) {
	lg := Generate(GenSpec{Seed: 9, Devices: 16, SpanMS: 120_000, EventsPerDevice: 60})
	if err := lg.Validate(); err != nil {
		t.Fatalf("generated log invalid: %v", err)
	}
	boots := 0
	perSlice := make([]int, 24)
	for _, ev := range lg.Events {
		if ev.Kind == EvBoot {
			boots++
			continue
		}
		slice := int(ev.AtMS * 24 / lg.Header.SpanMS)
		if slice > 23 {
			slice = 23
		}
		perSlice[slice]++
	}
	if boots != 16 {
		t.Fatalf("boots = %d, want 16", boots)
	}
	// Slice 18 carries weight 10, slice 1 weight 1: the density gap must
	// be unmistakable.
	if perSlice[18] <= 2*perSlice[1] {
		t.Fatalf("no diurnal shape: peak slice 18 has %d events, trough slice 1 has %d",
			perSlice[18], perSlice[1])
	}
}

// TestTimelineMatchesStableSort: the timeline merge orders generated
// events exactly as the stable sort with the original comparator did,
// kept here as the reference, including events that tie on time,
// device and kind (kept in generation order) and device names past
// w-999, whose name order is not their index order.
func TestTimelineMatchesStableSort(t *testing.T) {
	reference := func(events []Event) []Event {
		out := slices.Clone(events)
		sort.SliceStable(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.AtMS != b.AtMS {
				return a.AtMS < b.AtMS
			}
			if a.Device != b.Device {
				return a.Device < b.Device
			}
			return a.Kind < b.Kind
		})
		return out
	}
	specs := []struct {
		name     string
		spec     GenSpec
		fullTies bool // some events tie on time, device and kind
	}{
		{"default", GenSpec{Seed: 1}, false},
		{"fleet-shaped", GenSpec{Seed: 7, Devices: 64, EventsPerDevice: 300}, false},
		{"50ms-span", GenSpec{Seed: 3, Devices: 16, SpanMS: 50, EventsPerDevice: 40}, true},
		{"8ms-span", GenSpec{Seed: 4, Devices: 4, SpanMS: 8, EventsPerDevice: 30}, true},
		{"1200-devices", GenSpec{Seed: 5, Devices: 1200, SpanMS: 200, EventsPerDevice: 4}, false},
		{"events-past-span", GenSpec{Seed: 6, Devices: 2, SpanMS: 2000, EventsPerDevice: 1_000_000_000}, true},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			events := generate(tc.spec.withDefaults())
			want := reference(events)
			got := timeline(events)
			if len(got) != len(want) {
				t.Fatalf("timeline has %d events, want %d", len(got), len(want))
			}
			ties := 0
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
				}
				if i > 0 {
					a, b := want[i-1], want[i]
					if a.AtMS == b.AtMS && a.Device == b.Device && a.Kind == b.Kind {
						ties++
					}
				}
			}
			if tc.fullTies && ties == 0 {
				t.Fatal("spec produced no full ties; it no longer tests the generation-order tie-break")
			}
		})
	}
}
