package dist

import (
	"testing"

	"regcluster/internal/leakcheck"
)

// TestMain fails the package if any goroutine of the module outlives its
// tests (see leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
