package trace

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
)

// OldVintage is one log in a layout the readers refuse: Data is the log and
// Want what the refusal must say to name it.
type OldVintage struct {
	Name string
	Data []byte
	Want string
}

// The same three-event trace (open, write, close of one file by two ranks),
// written once by the writers of the last commit that had them (a773748:
// the v1 stream writer, and the block writer's row-layout and v2.1 codec
// options with and without Compress) and kept as bytes: nothing in the
// tree can produce these any more.
var oldVintageHex = []struct{ name, want, hex string }{
	{"v1", "VANITRC1", "56414e4954524331036f6c64000200000004000000000001016101022f661004677066730362696e00000003020001000000000000d00fd00f020301020000000010a01fa01f020101000000000000f02ed00f"},
	{"v2.0-row", "v2.0", "56414e4954524332036f6c64000200000004000000000001016101022f661004677066730362696e0000008080010301002903d00f02000100000000000000d00f020301020000000010a01fa01f020101000000000000f02ed00f01302b03d00fe05d080000000000000056414e4949445832"},
	{"v2.0-row-flate", "v2.0", "56414e4954524332036f6c64000200000004000000000001016101022f661004677066730362696e000000808001030101292462bec0cfc4c0c8000117f899981999402c8105f20be49918a1121ff42ef003020000ffff01302703d00fe05d080000000000000056414e4949445832"},
	{"v2.1", "v2.1", "56414e4954524332036f6c64000200000004000000000001016101022f661004677066730362696e0000008080010301022803020202000301010101000200000000000000000000000000001000d00fa01ff02ea01ff02ea01f01302a03d00fe05d0002040b0303030303030303030606170000000000000056414e4949445833"},
	{"v2.1-flate", "v2.1", "56414e4954524332036f6c64000200000004000000000001016101022f661004677066730362696e000000808001030103281f626662626260666464646460624001020c17f817c87fd0836040000000ffff01302203d00fe05d0002040b0303030303030303030606170000000000000056414e4949445833"},
}

// OldVintages returns every retired vintage as a tiny log, plus a current
// log whose first frame's codec byte is patched to each retired value.
func OldVintages(t testing.TB) []OldVintage {
	t.Helper()
	var out []OldVintage
	for _, v := range oldVintageHex {
		data, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, OldVintage{Name: v.name, Data: data, Want: v.want})
	}
	var buf bytes.Buffer
	if err := WriteV2(&buf, smallTrace(3)); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for codec, want := range []string{"v2.0", "v2.0", "v2.1", "v2.1"} {
		data := bytes.Clone(buf.Bytes())
		data[br.BlockAt(0).Offset] = byte(codec)
		out = append(out, OldVintage{Name: fmt.Sprintf("frame-codec-%d", codec), Data: data, Want: want})
	}
	return out
}
