package node

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

// Persistent node state: a restarting peer must come back with its path,
// reference tables, buddies and index intact — otherwise every restart is
// a permanent departure and the community pays the repair cost. The format
// is a gob blob with a version tag behind a 16-byte header:
//
//	offset  size  field
//	0       4     magic "PGST"
//	4       8     payload length N (big-endian)
//	12      4     CRC-32C of the payload (big-endian)
//	16      N     gob-encoded diskState
//
// The length catches a torn (truncated) file and the checksum a corrupted
// one, so a damaged checkpoint fails LoadState with an error instead of
// restoring garbage. The payload reuses the wire package's gob-friendly
// representations.

// stateVersion tags the on-disk format. Version 1 files carried no header
// and are refused.
const stateVersion = 2

const stateHeaderSize = 16

var (
	stateMagic = [4]byte{'P', 'G', 'S', 'T'}
	stateCRC   = crc32.MakeTable(crc32.Castagnoli)
)

// ErrStateCorrupt reports a checkpoint that is truncated, fails its
// checksum, or does not start with the checkpoint header.
var ErrStateCorrupt = errors.New("node: corrupt state checkpoint")

// diskState is the serialized form.
type diskState struct {
	Version int
	Addr    addr.Addr
	Path    bitpath.Path
	Refs    []wire.RefSet
	Buddies wire.RefSet
	Index   []store.Entry
	Hosted  []store.Entry
}

// SaveState writes the node's full durable state to w.
func (n *Node) SaveState(w io.Writer) error {
	s := n.self.Snapshot()
	ds := diskState{
		Version: stateVersion,
		Addr:    s.Addr,
		Path:    s.Path,
		Refs:    make([]wire.RefSet, len(s.Refs)),
		Buddies: wire.FromSet(s.Buddies),
		Index:   n.Store().Entries(),
		Hosted:  n.Store().Hosted(),
	}
	for i, r := range s.Refs {
		ds.Refs[i] = wire.FromSet(r)
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&ds); err != nil {
		return fmt.Errorf("node: save state: %w", err)
	}
	var hdr [stateHeaderSize]byte
	copy(hdr[:4], stateMagic[:])
	binary.BigEndian.PutUint64(hdr[4:12], uint64(body.Len()))
	binary.BigEndian.PutUint32(hdr[12:], crc32.Checksum(body.Bytes(), stateCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("node: save state: %w", err)
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return fmt.Errorf("node: save state: %w", err)
	}
	return nil
}

// LoadState restores the node's durable state from r. The stored address
// must match the node's (state files are per-identity).
// A truncated or corrupted checkpoint is refused with ErrStateCorrupt
// before any state is touched.
func (n *Node) LoadState(r io.Reader) error {
	var hdr [stateHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: header: %v", ErrStateCorrupt, err)
	}
	if !bytes.Equal(hdr[:4], stateMagic[:]) {
		return fmt.Errorf("%w: no checkpoint header", ErrStateCorrupt)
	}
	size := binary.BigEndian.Uint64(hdr[4:12])
	// Read through a limit rather than allocating size up front: a
	// corrupted length must not become a giant allocation. A length past
	// the end of the data reads short and is refused below.
	body, err := io.ReadAll(io.LimitReader(r, int64(size)))
	if err != nil {
		return fmt.Errorf("node: load state: %w", err)
	}
	if uint64(len(body)) != size {
		return fmt.Errorf("%w: truncated: %d of %d payload bytes", ErrStateCorrupt, len(body), size)
	}
	if crc32.Checksum(body, stateCRC) != binary.BigEndian.Uint32(hdr[12:]) {
		return fmt.Errorf("%w: checksum mismatch", ErrStateCorrupt)
	}
	var ds diskState
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&ds); err != nil {
		return fmt.Errorf("node: load state: %w", err)
	}
	if ds.Version != stateVersion {
		return fmt.Errorf("node: load state: unsupported version %d", ds.Version)
	}
	if ds.Addr != n.Addr() {
		return fmt.Errorf("node: load state: file belongs to %v, this node is %v", ds.Addr, n.Addr())
	}
	snap := n.self.Snapshot()
	snap.Path = ds.Path
	snap.Refs = make([]addr.Set, len(ds.Refs))
	for i, r := range ds.Refs {
		snap.Refs[i] = r.ToSet()
	}
	snap.Buddies = ds.Buddies.ToSet()
	snap.Online = true
	if err := n.self.Restore(snap); err != nil {
		return fmt.Errorf("node: load state: %w", err)
	}
	n.Store().Clear()
	for _, e := range ds.Index {
		n.Store().Apply(e)
	}
	for _, e := range ds.Hosted {
		n.Store().Host(e)
	}
	return nil
}

// SaveStateFile writes the state atomically and durably: to a temp file in
// the same directory, fsynced, renamed over path, and the directory fsynced
// so the rename itself survives a crash.
func (n *Node) SaveStateFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("node: save state: %w", err)
	}
	if err := n.SaveState(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := syncClose(f); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("node: save state: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("node: save state: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = syncClose(dir)
	}
	if err != nil {
		return fmt.Errorf("node: save state: %w", err)
	}
	return nil
}

// syncClose flushes f to stable storage and closes it.
func syncClose(f *os.File) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadStateFile restores state from path; a missing file is not an error
// (fresh node), reported by the boolean.
func (n *Node) LoadStateFile(path string) (loaded bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("node: load state: %w", err)
	}
	defer f.Close()
	if err := n.LoadState(f); err != nil {
		return false, err
	}
	return true, nil
}
