package vani

import (
	"fmt"
	"math"
	"testing"

	"vani/internal/replay"
	"vani/internal/spec"
	"vani/internal/storage"
)

// replayGolden is what replaying each golden spec's trace (4 nodes, at most
// 8 ranks per node, scale 0.01) under replay.DefaultOptions gives, with the
// recorded think time kept and dropped: runtime and I/O time in
// nanoseconds, ops, bytes, and the candidate system's Stats. The values
// were taken while replay ranks and the probes still ran as coroutine
// processes, before they moved onto step processes.
var replayGolden = map[string][2]string{
	"cm1": {
		"3776665550 58238323 2845 123207680 [{117440512 5767168 1415 22 0 7} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
		"410129773 62826727 2845 123207680 [{117440512 5767168 1415 22 0 7} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
	},
	"cosmoflow": {
		"243633427674 1008289080 22758 16658726912 [{16642998272 15728640 4352 18406 2368 1984} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
		"2279797672 1932863111 22758 16658726912 [{16642998272 15728640 4352 18406 2368 1984} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
	},
	"hacc": {
		"840242081 159687625 2592 9663676416 [{4831838208 4831838208 576 1440 525 51} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
		"645721583 567147674 2592 9663676416 [{4831838208 4831838208 576 1440 536 40} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
	},
	"ior": {
		"40078332 18932083 36 268435456 [{134217728 134217728 16 20 16 0} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
		"21546249 21546249 36 268435456 [{134217728 134217728 16 20 16 0} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
	},
	"jag": {
		"1103776074039 522372424 9180 36126720 [{34078720 2048000 8820 232 500 0} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
		"2251186445 2082462346 9180 36126720 [{34078720 2048000 8820 232 500 0} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
	},
	"montage-mpi": {
		"200222743539 43200258 35452 222199780 [{154691172 61610368 34696 396 34568 65} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
		"158425170 48319084 35452 222199780 [{154691172 61610368 34696 396 34568 67} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
	},
	"montage-pegasus": {
		"300098819873 171161513 24108 1432044177 [{1078018050 354026127 23730 378 7281 61} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
		"515545625 307337077 24108 1432044177 [{917979138 354026127 21288 378 7284 58} {0 0 0 0 0 0} {0 0 0 0 0 0} {0 0 0 0 0 0}]",
	},
}

// probeGolden is the bit pattern of each machine model's 32-node shared
// bandwidth (what cmd/tables and examples/system-survey print) and, where
// the machine has a node-local tier, its node-local bandwidth; taken at the
// same commit as replayGolden.
var probeGolden = []struct {
	name          string
	cfg           StorageConfig
	shared, local uint64
}{
	{"lassen", storage.Lassen(), 0x422ffcb979800d1a, 0x421fde8587df5539},
	{"cori", storage.Cori(), 0x422ffcb979800d1a, 0},
	{"summit", storage.Summit(), 0x4247f8a33a231af5, 0x41f7d115a181ee57},
}

// TestReplayGolden holds replay and the storage probes to the numbers they
// gave on another commit, not only to themselves: TestTuneMatchesRun
// compares replay with replay, which share the executor and any fault in
// it.
func TestReplayGolden(t *testing.T) {
	for _, w := range spec.All() {
		sp := w.DefaultSpec()
		sp.Nodes = 4
		if sp.RanksPerNode > 8 {
			sp.RanksPerNode = 8
		}
		sp.Scale = 0.01
		res, err := w.Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		for i, think := range []bool{true, false} {
			opt := replay.DefaultOptions()
			opt.PreserveThinkTime = think
			r, err := Replay(res.Trace, opt)
			if err != nil {
				t.Fatalf("%s think=%v: %v", w.Name(), think, err)
			}
			got := fmt.Sprintf("%d %d %d %d %v", r.Runtime, r.IOTime, r.Ops, r.Bytes, r.Sys.Stats)
			if want := replayGolden[w.Name()][i]; got != want {
				t.Errorf("%s think=%v: replay gives\n\t%s\nwant\n\t%s", w.Name(), think, got, want)
			}
		}
	}
	for _, p := range probeGolden {
		bw, err := ProbeSharedBW(p.cfg, 32)
		if err != nil || math.Float64bits(bw) != p.shared {
			t.Errorf("%s: shared probe %#x (%v), want %#x", p.name, math.Float64bits(bw), err, p.shared)
		}
		if p.local == 0 {
			continue
		}
		bw, err = ProbeNodeLocalBW(p.cfg)
		if err != nil || math.Float64bits(bw) != p.local {
			t.Errorf("%s: node-local probe %#x (%v), want %#x", p.name, math.Float64bits(bw), err, p.local)
		}
	}
}
