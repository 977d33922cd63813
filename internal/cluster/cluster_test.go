package cluster

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLassenShape(t *testing.T) {
	m := Lassen()
	if m.TotalNodes != 795 || m.CoresPerNode != 40 || m.GPUsPerNode != 4 {
		t.Errorf("Lassen shape wrong: %+v", m)
	}
	if m.MemPerNodeGB != 256 || m.PFSDir != "/p/gpfs1" || m.NodeLocalDir != "/dev/shm" {
		t.Errorf("Lassen storage wrong: %+v", m)
	}
	if m.SharedBBDir != "" {
		t.Error("Lassen has no shared burst buffer (Table II: NA)")
	}
}

func TestNewJobValid(t *testing.T) {
	j, err := NewJob("j1", Lassen(), 32, 40, 2*time.Hour)
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if j.Ranks() != 1280 {
		t.Errorf("Ranks = %d, want 1280", j.Ranks())
	}
}

func TestNewJobRejectsOversubscription(t *testing.T) {
	cases := []struct {
		nodes, rpn int
	}{
		{0, 40},    // zero nodes
		{-1, 40},   // negative nodes
		{1000, 40}, // more nodes than machine
		{32, 0},    // zero ranks per node
		{32, 41},   // more ranks than cores
	}
	for _, c := range cases {
		if _, err := NewJob("bad", Lassen(), c.nodes, c.rpn, time.Hour); err == nil {
			t.Errorf("NewJob(%d nodes, %d rpn) accepted, want error", c.nodes, c.rpn)
		}
	}
}

func TestNewJobRejectsNegativeLimit(t *testing.T) {
	if _, err := NewJob("bad", Lassen(), 1, 1, -time.Hour); err == nil {
		t.Error("negative time limit accepted")
	}
}

func TestBlockPlacement(t *testing.T) {
	j, _ := NewJob("j", Lassen(), 4, 10, time.Hour)
	if j.NodeOf(0) != 0 || j.NodeOf(9) != 0 || j.NodeOf(10) != 1 || j.NodeOf(39) != 3 {
		t.Error("block placement wrong")
	}
	if j.LocalRank(25) != 5 {
		t.Errorf("LocalRank(25) = %d, want 5", j.LocalRank(25))
	}
}

func TestPlacementPanicsOutOfRange(t *testing.T) {
	j, _ := NewJob("j", Lassen(), 2, 4, time.Hour)
	for _, fn := range []func(){
		func() { j.NodeOf(8) },
		func() { j.NodeOf(-1) },
		func() { j.LocalRank(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range argument")
				}
			}()
			fn()
		}()
	}
}

// Property: every rank maps to a valid node, local ranks are within
// [0, RanksPerNode), and NodeOf/LocalRank invert block placement.
func TestPlacementInversionProperty(t *testing.T) {
	f := func(nodesRaw, rpnRaw uint8) bool {
		nodes := int(nodesRaw%64) + 1
		rpn := int(rpnRaw%40) + 1
		j, err := NewJob("p", Lassen(), nodes, rpn, time.Hour)
		if err != nil {
			return false
		}
		for rank := 0; rank < j.Ranks(); rank++ {
			n, l := j.NodeOf(rank), j.LocalRank(rank)
			if n < 0 || n >= nodes || l < 0 || l >= rpn {
				return false
			}
			if n*rpn+l != rank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCoriAndSummitShapes(t *testing.T) {
	c := Cori()
	if c.SharedBBDir == "" || c.NodeLocalDir != "" {
		t.Errorf("Cori tiers wrong: %+v", c)
	}
	if c.CoresPerNode != 32 || c.GPUsPerNode != 0 {
		t.Errorf("Cori node shape wrong: %+v", c)
	}
	s := Summit()
	if s.GPUsPerNode != 6 || s.NodeLocalDir != "/mnt/bb" || s.SharedBBDir != "" {
		t.Errorf("Summit shape wrong: %+v", s)
	}
	for _, m := range []Machine{c, s} {
		if _, err := NewJob("j", m, 16, m.CoresPerNode, time.Hour); err != nil {
			t.Errorf("%s job: %v", m.Name, err)
		}
	}
}
