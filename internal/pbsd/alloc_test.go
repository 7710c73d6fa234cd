//go:build !race

package pbsd

import (
	"testing"
	"time"
)

// TestWireAllocations pins what one Submit, Stat and DeleteHead cost in
// allocations over a loopback connection, client and handler counted
// together: the job the daemon queues (its Job, its list element and
// its name) and nothing else.
func TestWireAllocations(t *testing.T) {
	_, ln := newTestListener(t, 16)
	c, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pair := func() {
		if _, err := c.Submit("alloc-job", 4, 90*time.Minute); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := c.Stat(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DeleteHead(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		pair()
	}
	if n := testing.AllocsPerRun(1000, pair); n > 3 {
		t.Errorf("Submit+Stat+DeleteHead = %v allocations, want at most 3", n)
	}
}
