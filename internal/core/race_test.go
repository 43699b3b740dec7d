//go:build race

package core

// raceEnabled reports that this test binary was built with -race. The
// race runtime randomly drops sync.Pool puts (the JIT's machine pool
// among them), so exact allocs/op pins only hold in normal builds.
const raceEnabled = true
