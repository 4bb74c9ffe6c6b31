package provgraph

import (
	"testing"

	"repro/internal/types"
)

// TestVertexIDGolden pins the exact bytes of Vertex.ID for every vertex
// type. The bytes are a compatibility contract: FirstInstant, AtInstant and
// the querier's explain walk order candidates by ID, so any change to the
// encoding reorders provenance answers.
func TestVertexIDGolden(t *testing.T) {
	tup := types.MakeTuple("bestCost", types.N("c"), types.N("d"), types.I(5))
	body := []types.Tuple{
		types.MakeTuple("link", types.N("c"), types.N("b"), types.I(2)),
		types.MakeTuple("bestCost", types.N("b"), types.N("d"), types.I(3)),
	}
	msg := func(pol types.Polarity) *types.Message {
		return &types.Message{Src: "c", Dst: "e", Pol: pol, Tuple: tup, SendTime: 7, Seq: 18446744073709551615}
	}
	cases := []struct {
		v    *Vertex
		want string
	}{
		{&Vertex{Type: VInsert, Host: "c", Tuple: tup, T1: 3},
			"INSERT|c||bestCost(@c,@d,5)|3"},
		{&Vertex{Type: VDelete, Host: "c", Tuple: tup, T1: 0},
			"DELETE|c||bestCost(@c,@d,5)|0"},
		{&Vertex{Type: VAppear, Host: "c", Tuple: tup, T1: -42},
			"APPEAR|c||bestCost(@c,@d,5)|-42"},
		{&Vertex{Type: VDisappear, Host: "c", Tuple: tup, T1: 9223372036854775806},
			"DISAPPEAR|c||bestCost(@c,@d,5)|9223372036854775806"},
		{&Vertex{Type: VExist, Host: "c", Tuple: tup, T1: 3, T2: Forever},
			"EXIST|c||bestCost(@c,@d,5)|3"},
		{&Vertex{Type: VDerive, Host: "c", Tuple: tup, Rule: "sp2", Remote: bodyFingerprint(body), T1: 1000000000},
			"DERIVE|c|sp2|bestCost(@c,@d,5)|1000000000|link(@c,@b,2);bestCost(@b,@d,3);"},
		{&Vertex{Type: VUnderive, Host: "c", Tuple: tup, Rule: "sp2", Remote: bodyFingerprint(body[:1]), T1: 11},
			"UNDERIVE|c|sp2|bestCost(@c,@d,5)|11|link(@c,@b,2);"},
		{&Vertex{Type: VDerive, Host: "c", Tuple: tup, Rule: "r0", Remote: bodyFingerprint(nil), T1: 4},
			"DERIVE|c|r0|bestCost(@c,@d,5)|4|"},
		{&Vertex{Type: VSend, Host: "c", Remote: "e", Msg: msg(types.PolAppear), T1: 7},
			"SEND|c|c>e#18446744073709551615|+bestCost(@c,@d,5)"},
		{&Vertex{Type: VSend, Host: "c", Remote: "e", Msg: msg(types.PolDisappear), T1: 7},
			"SEND|c|c>e#18446744073709551615|-bestCost(@c,@d,5)"},
		{&Vertex{Type: VSend, Host: "c", Remote: "e", Msg: msg(types.PolBoth), T1: 7},
			"SEND|c|c>e#18446744073709551615|!bestCost(@c,@d,5)"},
		{&Vertex{Type: VReceive, Host: "e", Remote: "c", Msg: msg(types.PolAppear), T1: 8},
			"RECEIVE|e|c>e#18446744073709551615|+bestCost(@c,@d,5)"},
		{&Vertex{Type: VReceive, Host: "e", Remote: "c", Msg: msg(types.PolDisappear), T1: 8},
			"RECEIVE|e|c>e#18446744073709551615|-bestCost(@c,@d,5)"},
		{&Vertex{Type: VReceive, Host: "e", Remote: "c", Msg: msg(types.PolBoth), T1: 8},
			"RECEIVE|e|c>e#18446744073709551615|!bestCost(@c,@d,5)"},
		{&Vertex{Type: VBelieveAppear, Host: "e", Remote: "c", Tuple: tup, T1: 8},
			"BELIEVE-APPEAR|e|c|bestCost(@c,@d,5)|8"},
		{&Vertex{Type: VBelieveDisappear, Host: "e", Remote: "c", Tuple: tup, T1: 12},
			"BELIEVE-DISAPPEAR|e|c|bestCost(@c,@d,5)|12"},
		{&Vertex{Type: VBelieve, Host: "e", Remote: "c", Tuple: tup, T1: 8, T2: 12},
			"BELIEVE|e|c|bestCost(@c,@d,5)|8"},
	}
	for _, c := range cases {
		if got := c.v.ID(); got != c.want {
			t.Errorf("%s ID = %q, want %q", c.v.Type, got, c.want)
		}
	}
}
