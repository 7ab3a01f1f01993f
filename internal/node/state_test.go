package node

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
)

func TestStateRoundTrip(t *testing.T) {
	c := NewCluster(32, smallCfg(), 1)
	rng := rand.New(rand.NewSource(1))
	buildCluster(t, c, 0.9*4, 50000, rng)
	n := c.Nodes[5]
	n.Store().Apply(store.Entry{Key: bitpath.MustParse("0101"), Name: "f", Holder: 2, Version: 3})
	n.Store().Host(store.Entry{Key: bitpath.MustParse("0101"), Name: "mine", Holder: 5, Version: 1})
	n.Peer().AddBuddy(7)

	var buf bytes.Buffer
	if err := n.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// A blank node with the same identity restores everything.
	n2 := New(n.Addr(), smallCfg(), c.Transport, 99)
	if err := n2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if n2.Path() != n.Path() {
		t.Errorf("path %q vs %q", n2.Path(), n.Path())
	}
	s1, s2 := n.Peer().Snapshot(), n2.Peer().Snapshot()
	for i := range s1.Refs {
		a, b := s1.Refs[i].Sorted(), s2.Refs[i].Sorted()
		if len(a) != len(b) {
			t.Fatalf("refs level %d: %v vs %v", i+1, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("refs level %d: %v vs %v", i+1, a, b)
			}
		}
	}
	if !s2.Buddies.Contains(7) {
		t.Error("buddies lost")
	}
	if e, ok := n2.Store().Get(bitpath.MustParse("0101"), "f"); !ok || e.Version != 3 {
		t.Errorf("index lost: %v %v", e, ok)
	}
	if len(n2.Store().Hosted()) != 1 {
		t.Error("hosted items lost")
	}
}

func TestStateRejectsWrongIdentity(t *testing.T) {
	c := NewCluster(2, smallCfg(), 2)
	var buf bytes.Buffer
	if err := c.Nodes[0].SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[1].LoadState(&buf); err == nil {
		t.Fatal("state of node 0 loaded into node 1")
	}
}

func TestStateRejectsGarbage(t *testing.T) {
	c := NewCluster(1, smallCfg(), 3)
	if err := c.Nodes[0].LoadState(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestStateFileLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.state")

	c := NewCluster(4, smallCfg(), 4)
	c.Nodes[0].Exchange(1)
	c.Nodes[0].Store().Apply(store.Entry{Key: bitpath.MustParse("00"), Name: "x", Holder: 1, Version: 1})

	// Missing file: fresh start, no error.
	fresh := New(addr.Addr(0), smallCfg(), c.Transport, 5)
	if loaded, err := fresh.LoadStateFile(path); err != nil || loaded {
		t.Fatalf("missing file: loaded=%v err=%v", loaded, err)
	}

	if err := c.Nodes[0].SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	restarted := New(addr.Addr(0), smallCfg(), c.Transport, 6)
	loaded, err := restarted.LoadStateFile(path)
	if err != nil || !loaded {
		t.Fatalf("loaded=%v err=%v", loaded, err)
	}
	if restarted.Path() != c.Nodes[0].Path() {
		t.Errorf("path %q vs %q", restarted.Path(), c.Nodes[0].Path())
	}
	if restarted.Store().Len() != c.Nodes[0].Store().Len() {
		t.Error("index size differs after restart")
	}
}

// damagedStateFile saves node's checkpoint, lets damage rewrite its bytes,
// writes the result back, and loads it into a fresh node of the same
// identity: the load must fail with ErrStateCorrupt, without panicking
// and without touching the fresh node's state.
func damagedStateFile(t *testing.T, n *Node, damage func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node.state")
	if err := n.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(append([]byte(nil), good...)), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := New(n.Addr(), smallCfg(), nil, 1)
	loaded, err := fresh.LoadStateFile(path)
	if !errors.Is(err, ErrStateCorrupt) || loaded {
		t.Fatalf("loaded=%v err=%v, want ErrStateCorrupt", loaded, err)
	}
	if fresh.Path() != bitpath.Empty || fresh.Store().Len() != 0 {
		t.Fatalf("failed load changed the node: path %q, %d entries", fresh.Path(), fresh.Store().Len())
	}
}

func stateFixture(t *testing.T) *Node {
	t.Helper()
	c := NewCluster(4, smallCfg(), 12)
	c.Nodes[0].Exchange(1)
	c.Nodes[0].Store().Apply(store.Entry{Key: bitpath.MustParse("00"), Name: "x", Holder: 1, Version: 1})
	c.Nodes[0].Store().Host(store.Entry{Key: bitpath.MustParse("01"), Name: "mine", Holder: 0, Version: 1})
	return c.Nodes[0]
}

// TestStateTruncatedFile cuts the checkpoint at every length short of
// whole — inside the header and inside the payload — as a crash mid-write
// without fsync would.
func TestStateTruncatedFile(t *testing.T) {
	n := stateFixture(t)
	var buf bytes.Buffer
	if err := n.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut++ {
		damagedStateFile(t, n, func(b []byte) []byte { return b[:cut] })
	}
}

// TestStateBitFlippedFile flips one bit in every byte of the checkpoint in
// turn: header, length, checksum and payload damage must all be caught.
func TestStateBitFlippedFile(t *testing.T) {
	n := stateFixture(t)
	var buf bytes.Buffer
	if err := n.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < buf.Len(); i++ {
		damagedStateFile(t, n, func(b []byte) []byte { b[i] ^= 1 << (i % 8); return b })
	}
}

// TestRestartKeepsAnsweringQueries is the end-to-end restart story: a node
// saves, "crashes", is recreated from disk, and still routes.
func TestRestartKeepsAnsweringQueries(t *testing.T) {
	c := NewCluster(64, smallCfg(), 7)
	rng := rand.New(rand.NewSource(7))
	buildCluster(t, c, 0.99*4, 80000, rng)

	dir := t.TempDir()
	victim := c.Nodes[10]
	path := filepath.Join(dir, "victim.state")
	if err := victim.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}

	// Crash + replace with a restored node under the same address.
	replacement := New(victim.Addr(), smallCfg(), c.Transport, 8)
	if _, err := replacement.LoadStateFile(path); err != nil {
		t.Fatal(err)
	}
	c.Transport.Register(replacement) // takes over the address
	c.Nodes[10] = replacement

	succ := 0
	for i := 0; i < 100; i++ {
		key := bitpath.Random(rng, 4)
		if c.Nodes[rng.Intn(len(c.Nodes))].Query(key).Found {
			succ++
		}
	}
	if succ < 95 {
		t.Fatalf("only %d/100 queries succeeded after restart", succ)
	}
	// The restored node itself routes too.
	if !replacement.Query(bitpath.Random(rng, 4)).Found {
		t.Error("restored node cannot route")
	}
}
