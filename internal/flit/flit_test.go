package flit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Head:     "head",
		Body:     "body",
		Tail:     "tail",
		HeadTail: "head+tail",
		Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !Head.IsHead() || Head.IsTail() {
		t.Errorf("Head: IsHead=%v IsTail=%v", Head.IsHead(), Head.IsTail())
	}
	if Body.IsHead() || Body.IsTail() {
		t.Errorf("Body: IsHead=%v IsTail=%v", Body.IsHead(), Body.IsTail())
	}
	if Tail.IsHead() || !Tail.IsTail() {
		t.Errorf("Tail: IsHead=%v IsTail=%v", Tail.IsHead(), Tail.IsTail())
	}
	if !HeadTail.IsHead() || !HeadTail.IsTail() {
		t.Errorf("HeadTail: IsHead=%v IsTail=%v", HeadTail.IsHead(), HeadTail.IsTail())
	}
}

func TestClassString(t *testing.T) {
	if ClassRequest.String() != "request" || ClassResponse.String() != "response" {
		t.Errorf("unexpected class names %q, %q", ClassRequest, ClassResponse)
	}
	if Class(7).String() != "class(7)" {
		t.Errorf("unexpected unknown class name %q", Class(7))
	}
}

func TestFlitsSingle(t *testing.T) {
	p := &Packet{ID: 1, Src: 0, Dst: 3, Length: 1}
	fs := new(Pool).AppendFlits(nil, p)
	if len(fs) != 1 {
		t.Fatalf("got %d flits, want 1", len(fs))
	}
	if fs[0].Kind != HeadTail {
		t.Errorf("single-flit packet kind = %v, want HeadTail", fs[0].Kind)
	}
	if fs[0].Packet != p {
		t.Errorf("flit does not reference its packet")
	}
}

func TestFlitsMulti(t *testing.T) {
	p := &Packet{ID: 2, Length: 5}
	fs := new(Pool).AppendFlits(nil, p)
	if len(fs) != 5 {
		t.Fatalf("got %d flits, want 5", len(fs))
	}
	if fs[0].Kind != Head {
		t.Errorf("first flit kind = %v, want Head", fs[0].Kind)
	}
	for i := 1; i < 4; i++ {
		if fs[i].Kind != Body {
			t.Errorf("flit %d kind = %v, want Body", i, fs[i].Kind)
		}
	}
	if fs[4].Kind != Tail {
		t.Errorf("last flit kind = %v, want Tail", fs[4].Kind)
	}
	for i, f := range fs {
		if f.Seq != i {
			t.Errorf("flit %d has Seq %d", i, f.Seq)
		}
	}
}

func TestFlitsZeroLengthNormalised(t *testing.T) {
	p := &Packet{Length: 0}
	fs := new(Pool).AppendFlits(nil, p)
	if len(fs) != 1 || p.Length != 1 {
		t.Errorf("zero length: got %d flits, packet length %d; want 1 flit, length 1", len(fs), p.Length)
	}
}

// Property: for any length, AppendFlits yields exactly one head, one tail, the
// rest body, in order, all referencing the packet.
func TestFlitsProperty(t *testing.T) {
	f := func(n uint8) bool {
		length := int(n%16) + 1
		p := &Packet{Length: length}
		fs := new(Pool).AppendFlits(nil, p)
		if len(fs) != length {
			return false
		}
		heads, tails := 0, 0
		for i, fl := range fs {
			if fl.Packet != p || fl.Seq != i {
				return false
			}
			if fl.Kind.IsHead() {
				heads++
				if i != 0 {
					return false
				}
			}
			if fl.Kind.IsTail() {
				tails++
				if i != length-1 {
					return false
				}
			}
		}
		return heads == 1 && tails == 1
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	p := &Packet{ID: 7, Src: 1, Dst: 2, Class: ClassResponse, Length: 5}
	if p.String() == "" {
		t.Error("empty packet string")
	}
	f := &Flit{Packet: p, Kind: Head, Seq: 0, VC: 3}
	if f.String() == "" {
		t.Error("empty flit string")
	}
}
