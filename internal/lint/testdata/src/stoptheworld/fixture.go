// Package fixture exercises the stoptheworld analyzer: every use of
// runtime.ReadMemStats, runtime.GC or debug.FreeOSMemory is a finding,
// called or not, while runtime/metrics and other runtime functions are
// not.
package fixture

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// Allocs reads the allocation count the stop-the-world way.
func Allocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m) // want "runtime.ReadMemStats stops the world"
	return m.Mallocs
}

// Release forces a collection and returns memory to the OS.
func Release() {
	runtime.GC()         // want "runtime.GC stops the world"
	debug.FreeOSMemory() // want "debug.FreeOSMemory stops the world"
}

// collect holds a stop-the-world function as a value.
var collect = runtime.GC // want "runtime.GC stops the world"

// Sampled reads the same count from runtime/metrics: no finding, and
// neither for the other runtime and runtime/debug functions.
func Sampled(s []metrics.Sample) int {
	metrics.Read(s)
	debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.Gosched()
	return runtime.NumGoroutine()
}
