package device_test

import (
	"testing"

	"rchdroid/internal/device"
	"rchdroid/internal/oracle/corpus"
)

// BenchmarkFreshBuild measures world construction: build, launch and
// settle one corpus app. Run with
//
//	go test ./internal/device -bench . -benchmem
func BenchmarkFreshBuild(b *testing.B) {
	sc, _ := corpus.ByName("double-rotation")
	spec := device.Spec{App: sc.App}
	for i := 0; i < b.N; i++ {
		device.New(spec, 1, nil)
	}
}
