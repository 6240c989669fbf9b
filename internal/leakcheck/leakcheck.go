// Package leakcheck fails a test binary whose tests leave goroutines of this
// module running. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the tests pass, Main waits up to a grace period for every goroutine
// that runs, or was started by, code under regcluster/internal/ to return;
// any still running fails the binary with its stack. A worker, miner or
// journal goroutine that outlives its test can log or write after the test
// ended, which is how such leaks show up as rare, order-dependent failures.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Grace is how long Main waits for stragglers to return.
const Grace = 2 * time.Second

// Main runs the tests, then the leak check, and exits.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := Leaked(Grace); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// Leaked polls for up to grace and returns the stacks of the goroutines
// other than the caller's that still run this module's internal code.
func Leaked(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		leaked := moduleGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func moduleGoroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The first stack is the caller's own goroutine.
	stacks := strings.Split(string(buf), "\n\n")[1:]
	var leaked []string
	for _, s := range stacks {
		if strings.Contains(s, "regcluster/internal/") {
			leaked = append(leaked, s)
		}
	}
	return leaked
}
