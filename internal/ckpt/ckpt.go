// Package ckpt defines checkpoint records and their storage. A checkpoint
// is everything Algorithm 1 line 33 saves: the process image (application
// snapshot), the sender message log, and the protocol's counter vectors —
// plus the step index so the harness knows where to resume the
// application.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"sync"

	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/vclock"
)

// Checkpoint is one rank's durable recovery point.
type Checkpoint struct {
	Rank int
	// Step is the application step index at which execution resumes.
	Step int
	// AppImage is the application's Snapshot.
	AppImage []byte
	// ProtoState is the logging protocol's Snapshot (e.g. TDI's
	// depend_interval vector, TAG's antecedence graph).
	ProtoState []byte
	// LastSendIndex / LastDeliverIndex are the per-channel counters.
	LastSendIndex    vclock.Vec
	LastDeliverIndex vclock.Vec
	// DeliveredCount is the rank's state-interval index (total messages
	// delivered) at the checkpoint.
	DeliveredCount int64
	// Log is the retained sender log (messages peers may still need).
	// Empty when LogExternal is set.
	Log []proto.LogItem
	// LogExternal marks an incremental checkpoint: the sender log is
	// not in the image because every item is already in the stable
	// store (the harness's slog/ streams) and the restorer rebuilds it
	// from there. This keeps the checkpoint blob
	// O(app state) instead of O(app state + retained log).
	LogExternal bool
}

// Encode serializes c.
func Encode(c *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("ckpt: encode rank %d: %w", c.Rank, err)
	}
	return buf.Bytes(), nil
}

// Decode parses a checkpoint produced by Encode.
func Decode(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); err != nil {
		return nil, fmt.Errorf("ckpt: decode: %w", err)
	}
	return &c, nil
}

// Checkpoint blobs are framed so a torn write is detectable rather than
// silently wrong: magic, u32 little-endian payload length, u32 CRC-32
// (IEEE) of the payload, payload. gob alone will happily decode many
// truncations of a valid stream, so the frame carries the truth about
// the intended length.
var frameMagic = []byte("WCKP1")

const frameHeader = 5 + 4 + 4

// Frame wraps an encoded checkpoint with the length + checksum header.
func Frame(payload []byte) []byte {
	out := make([]byte, 0, frameHeader+len(payload))
	out = append(out, frameMagic...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	out = append(out, hdr[:]...)
	return append(out, payload...)
}

// Unframe verifies the header and returns the payload.
func Unframe(data []byte) ([]byte, error) {
	if len(data) < frameHeader || !bytes.Equal(data[:5], frameMagic) {
		return nil, fmt.Errorf("ckpt: blob missing frame header (%d bytes)", len(data))
	}
	plen := int(binary.LittleEndian.Uint32(data[5:9]))
	sum := binary.LittleEndian.Uint32(data[9:13])
	payload := data[frameHeader:]
	if len(payload) != plen {
		return nil, fmt.Errorf("ckpt: torn blob: frame promises %d payload bytes, have %d", plen, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("ckpt: blob checksum mismatch")
	}
	return payload, nil
}

// Manager stores one current checkpoint per rank on stable storage.
// Checkpointing is independent and uncoordinated (each rank overwrites its
// own slot), matching the paper's independent checkpointing property.
//
// The manager separates a checkpoint's two lives. Stage records the
// in-memory snapshot the instant it is taken, so a same-process recovery
// (simulated goroutine kill) always restores the newest state interval —
// matching the trace recorder, which logs the checkpoint event at
// snapshot time. Save then makes the snapshot durable in the background:
// write-temp-rename under the backend's atomic contract, with a
// staleness guard so two incarnations' writers can never regress the
// slot. Only after Save returns may CHECKPOINT_ADVANCE be announced,
// because peers discard logs on its strength.
type Manager struct {
	store *stable.Store

	mu          sync.Mutex
	staged      map[int]*Checkpoint
	durableStep map[int]int
	saving      map[int]*sync.Mutex
}

// NewManager returns a Manager writing to store.
func NewManager(store *stable.Store) *Manager {
	return &Manager{
		store:       store,
		staged:      make(map[int]*Checkpoint),
		durableStep: make(map[int]int),
		saving:      make(map[int]*sync.Mutex),
	}
}

// Store returns the underlying stable store.
func (m *Manager) Store() *stable.Store { return m.store }

func key(rank int) string { return fmt.Sprintf("ckpt/%08d", rank) }

// tmpKey is where Save stages rank's image before publishing it. It
// shares key(rank)'s shard scope on the disk backend (a name is hashed up
// to its second '/'), so the publishing Rename is two records in one log
// file and needs no barrier between them.
func tmpKey(rank int) string { return key(rank) + "/tmp" }

// Stage records c as rank c.Rank's newest checkpoint without touching
// stable storage. The caller must treat c as immutable afterwards.
func (m *Manager) Stage(c *Checkpoint) {
	m.mu.Lock()
	if cur := m.staged[c.Rank]; cur == nil || c.Step >= cur.Step {
		m.staged[c.Rank] = c
	}
	m.mu.Unlock()
}

// Save durably records c as rank c.Rank's current checkpoint. The write
// is crash-atomic: the framed blob lands under a temp key and an atomic
// rename publishes it, so a crash at any instant leaves either the old
// checkpoint or the new one, never a torn blob. Saves of stale
// checkpoints (an older incarnation's writer finishing late) are
// silently skipped.
func (m *Manager) Save(c *Checkpoint) error {
	m.mu.Lock()
	slot := m.saving[c.Rank]
	if slot == nil {
		slot = &sync.Mutex{}
		m.saving[c.Rank] = slot
	}
	m.mu.Unlock()

	slot.Lock()
	defer slot.Unlock()
	m.mu.Lock()
	prev, saved := m.durableStep[c.Rank]
	m.mu.Unlock()
	if saved && prev >= c.Step {
		return nil
	}

	data, err := Encode(c)
	if err != nil {
		return err
	}
	framed := Frame(data)
	tmp := tmpKey(c.Rank)
	if err := m.store.Put(tmp, framed); err != nil {
		return fmt.Errorf("ckpt: save rank %d: %w", c.Rank, err)
	}
	if err := m.store.Rename(tmp, key(c.Rank)); err != nil {
		return fmt.Errorf("ckpt: publish rank %d: %w", c.Rank, err)
	}
	m.mu.Lock()
	m.durableStep[c.Rank] = c.Step
	m.mu.Unlock()
	return nil
}

// Load returns rank's current checkpoint: the staged in-memory snapshot
// when one exists (same-process recovery restores the newest state
// interval even if its durable write is still in flight), otherwise the
// durable blob. ok is false if the rank never checkpointed — recovery
// then restarts from the initial state.
func (m *Manager) Load(rank int) (*Checkpoint, bool, error) {
	m.mu.Lock()
	staged := m.staged[rank]
	m.mu.Unlock()
	if staged != nil {
		return staged, true, nil
	}
	return m.LoadDurable(rank)
}

// LoadDurable returns rank's checkpoint from stable storage only — what
// a freshly restarted process would see.
func (m *Manager) LoadDurable(rank int) (*Checkpoint, bool, error) {
	data, ok := m.store.Get(key(rank))
	if !ok {
		return nil, false, nil
	}
	payload, err := Unframe(data)
	if err != nil {
		return nil, false, err
	}
	c, err := Decode(payload)
	if err != nil {
		return nil, false, err
	}
	if c.Rank != rank {
		return nil, false, fmt.Errorf("ckpt: slot for rank %d holds checkpoint of rank %d", rank, c.Rank)
	}
	return c, true, nil
}
