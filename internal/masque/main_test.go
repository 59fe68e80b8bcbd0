package masque

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/relay-networks/privaterelay/internal/vclock"
)

// leakWait is how long the package's goroutines get to exit after the
// last test: a closed conn or listener unblocks its goroutine within
// milliseconds, so only a leak outlasts it.
const leakWait = 5 * time.Second

// TestMain runs the tests, then requires every goroutine with a frame
// in this package — demux loops, accept workers, stream pumps, test
// servers — to exit within leakWait. A tunnel, listener or flow that a
// Close forgot keeps its goroutine parked, and the run fails printing
// the stacks that are left.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := awaitPackageGoroutines(leakWait); len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "%d goroutine(s) of internal/masque still running %v after the tests; the first:\n\n%s\n",
			len(leaked), leakWait, strings.Join(leaked[:min(len(leaked), 5)], "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// awaitPackageGoroutines polls until no goroutine but the caller has
// an internal/masque frame, and returns the stacks of those still
// running when d has passed.
func awaitPackageGoroutines(d time.Duration) []string {
	clock := vclock.WallClock{}
	deadline := clock.Now().Add(d)
	for {
		leaked := packageGoroutines()
		if len(leaked) == 0 || clock.Now().After(deadline) {
			return leaked
		}
		_ = clock.Sleep(context.Background(), 10*time.Millisecond)
	}
}

// packageGoroutines returns the stack of every goroutine, other than
// the caller's, that runs or was started by code in this package.
func packageGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The caller's own stack comes first.
	stacks := strings.Split(string(buf), "\n\n")[1:]
	var out []string
	for _, s := range stacks {
		if strings.Contains(s, "/internal/masque.") {
			out = append(out, s)
		}
	}
	return out
}
