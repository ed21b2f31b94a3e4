package lifecycle

import (
	"os"
	"testing"

	"resistecc/internal/testutil"
)

// TestMain fails the suite if any test leaks a manager's worker goroutine:
// every Manager opened by a test must be Closed.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyNoLeaksMain(m))
}
