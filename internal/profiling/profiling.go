// Package profiling gives a command the diagnostic -cpuprofile and
// -memprofile flags of `go test`, so a hotspot can be found without
// patching a copy of the binary. Nothing measured reads them: with
// both flags empty Start does nothing.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile destinations.
type Flags struct{ cpu, mem *string }

// Register declares the flags on the default set; call before flag.Parse.
func Register() Flags {
	return Flags{
		cpu: flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (diagnostic)"),
		mem: flag.String("memprofile", "", "write a heap profile at exit to this file (diagnostic)"),
	}
}

// Start begins CPU profiling if asked to. The returned stop ends it and
// writes the heap profile; call it on the way out (os.Exit skips
// defers). Profile I/O problems are reported on stderr, never fatal.
func (f Flags) Start() (stop func()) {
	var cpuFile *os.File
	if *f.cpu != "" {
		var err error
		if cpuFile, err = os.Create(*f.cpu); err == nil {
			err = pprof.StartCPUProfile(cpuFile)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *f.mem == "" {
			return
		}
		memFile, err := os.Create(*f.mem)
		if err == nil {
			runtime.GC() // materialize up-to-date allocation statistics
			err = pprof.WriteHeapProfile(memFile)
			memFile.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}
}
