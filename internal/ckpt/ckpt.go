// Package ckpt defines checkpoint records and their storage. A checkpoint
// is everything Algorithm 1 line 33 saves: the process image (application
// snapshot), the sender message log, and the protocol's counter vectors —
// plus the step index so the harness knows where to resume the
// application.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"

	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// Checkpoint is one rank's durable recovery point.
type Checkpoint struct {
	Rank int
	// Step is the application step index at which execution resumes.
	Step int
	// AppImage is the application's Snapshot.
	AppImage []byte
	// ProtoState is the logging protocol's AppendSnapshot (e.g. TDI's
	// depend_interval vector, TAG's antecedence graph).
	ProtoState []byte
	// LastSendIndex / LastDeliverIndex are the per-channel counters.
	LastSendIndex    vclock.Vec
	LastDeliverIndex vclock.Vec
	// DeliveredCount is the rank's state-interval index (total messages
	// delivered) at the checkpoint.
	DeliveredCount int64
	// LogView is the retained sender log (messages peers may still
	// need), as a view of its records. Empty when LogExternal is set.
	LogView proto.LogView
	// Log is the other encode-side input (set at most one of the two):
	// loose items, each destination's in send-index order. Decode never
	// fills it; only the benchmark's probe still sets it.
	Log []proto.LogItem
	// LogExternal marks an incremental checkpoint: the sender log is
	// not in the image because every item is already in the stable
	// store (the harness's slog/ streams) and the restorer rebuilds it
	// from there. This keeps the checkpoint blob
	// O(app state) instead of O(app state + retained log).
	LogExternal bool
}

// A checkpoint blob is one buffer, written once:
//
//	"WCKP" · version 0x04 · u32le len(body) · u32le CRC-32/IEEE(body) · body
//
//	body = varint Rank · varint Step · varint DeliveredCount ·
//	       flags (bit 0: LogExternal) ·
//	       uvarint len · AppImage · uvarint len · ProtoState ·
//	       wire.AppendVec LastSendIndex · wire.AppendVec LastDeliverIndex ·
//	       uvarint count · proto.AppendLogItem × count
//
// The log section is the sender log's records verbatim, in (Dest,
// SendIndex) order, which Decode checks; the slog/ streams of a
// LogExternal checkpoint hold the same records, one per entry, read only
// after their checkpoint decoded. The length and checksum make a torn
// write detectable rather than silently wrong. The version byte sits
// where the gob-era format ("WCKP1" + gob stream) had '1', so such a blob
// is refused by name instead of misparsed, as are 0x02 and 0x03 (TDI
// wire formats v2 and v3).
const (
	blobMagic   = "WCKP"
	blobVersion = 0x04
	blobHeader  = len(blobMagic) + 1 + 4 + 4

	flagLogExternal = 1 << 0
)

// Encode serializes c into a framed blob of its own.
func Encode(c *Checkpoint) ([]byte, error) { return AppendEncode(nil, c) }

// AppendEncode appends c's framed blob to dst and returns the extended
// buffer. The body is sized first, so dst grows at most once and a
// buffer reused from the previous checkpoint does not grow at all.
func AppendEncode(dst []byte, c *Checkpoint) ([]byte, error) {
	dests := make([]int, 0, 16) // of the loose items, written destination by destination
	size := wire.VarintLen(int64(c.Rank)) + wire.VarintLen(int64(c.Step)) + wire.VarintLen(c.DeliveredCount) + 1 +
		wire.UvarintLen(uint64(len(c.AppImage))) + len(c.AppImage) +
		wire.UvarintLen(uint64(len(c.ProtoState))) + len(c.ProtoState) +
		wire.VecSize(c.LastSendIndex) + wire.VecSize(c.LastDeliverIndex) +
		wire.UvarintLen(uint64(c.LogView.Count+len(c.Log)))
	for _, r := range c.LogView.Runs {
		size += len(r.Recs)
	}
	for i := range c.Log {
		size += proto.LogItemSize(&c.Log[i])
		if !slices.Contains(dests, c.Log[i].Dest) {
			dests = append(dests, c.Log[i].Dest)
		}
	}
	slices.Sort(dests)
	if uint64(size) > math.MaxUint32 {
		return dst, fmt.Errorf("ckpt: encode rank %d: %d-byte body exceeds the frame's 32-bit length", c.Rank, size)
	}
	start := len(dst)
	buf := append(slices.Grow(dst, blobHeader+size), blobMagic...)
	buf = append(buf, blobVersion, 0, 0, 0, 0, 0, 0, 0, 0) // length and checksum, filled in below

	buf = binary.AppendVarint(buf, int64(c.Rank))
	buf = binary.AppendVarint(buf, int64(c.Step))
	buf = binary.AppendVarint(buf, c.DeliveredCount)
	var flags byte
	if c.LogExternal {
		flags |= flagLogExternal
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(c.AppImage)))
	buf = append(buf, c.AppImage...)
	buf = binary.AppendUvarint(buf, uint64(len(c.ProtoState)))
	buf = append(buf, c.ProtoState...)
	buf = wire.AppendVec(buf, c.LastSendIndex)
	buf = wire.AppendVec(buf, c.LastDeliverIndex)
	buf = binary.AppendUvarint(buf, uint64(c.LogView.Count+len(c.Log)))
	for _, r := range c.LogView.Runs {
		buf = append(buf, r.Recs...)
	}
	for _, dest := range dests {
		for i := range c.Log {
			if c.Log[i].Dest == dest {
				buf = proto.AppendLogItem(buf, &c.Log[i])
			}
		}
	}

	hdr := buf[start : start+blobHeader]
	body := buf[start+blobHeader:]
	binary.LittleEndian.PutUint32(hdr[blobHeader-8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[blobHeader-4:], crc32.ChecksumIEEE(body))
	return buf, nil
}

// Decode parses a blob produced by Encode, rejecting anything torn,
// corrupt or of another format version. The body is copied once and the
// checkpoint's byte fields — images and the log view — are views into
// that copy, so data may be reused afterwards.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < blobHeader || string(data[:len(blobMagic)]) != blobMagic {
		return nil, fmt.Errorf("ckpt: blob missing frame header (%d bytes)", len(data))
	}
	if v := data[len(blobMagic)]; v != blobVersion {
		return nil, fmt.Errorf("ckpt: blob format version %#02x, this build reads %#02x (gob-era checkpoints are version '1', those with v2 and v3 piggybacks 0x02 and 0x03; all must be retaken)", v, blobVersion)
	}
	body := data[blobHeader:]
	if want := binary.LittleEndian.Uint32(data[blobHeader-8:]); uint64(len(body)) != uint64(want) {
		return nil, fmt.Errorf("ckpt: torn blob: frame promises %d body bytes, have %d", want, len(body))
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[blobHeader-4:]) {
		return nil, fmt.Errorf("ckpt: blob checksum mismatch")
	}
	return decodeBody(append([]byte(nil), body...))
}

// decodeBody parses a checkpoint body, taking ownership of it.
func decodeBody(body []byte) (*Checkpoint, error) {
	r := wire.NewCursor(body)
	rank, step := r.Varint(), r.Varint()
	c := &Checkpoint{Rank: int(rank), Step: int(step), DeliveredCount: r.Varint()}
	flags := r.Byte()
	c.LogExternal = flags&flagLogExternal != 0
	c.AppImage, c.ProtoState = r.Bytes(), r.Bytes()
	c.LastSendIndex, c.LastDeliverIndex = r.Vec(), r.Vec()
	items := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: decode: %w", err)
	}
	if int64(c.Rank) != rank || int64(c.Step) != step || flags&^flagLogExternal != 0 {
		return nil, fmt.Errorf("ckpt: decode: header fields out of range")
	}
	// Every item takes at least one byte.
	if items > uint64(r.Len()) {
		return nil, fmt.Errorf("ckpt: decode: %d log items claimed in %d bytes", items, r.Len())
	}
	view, err := proto.ParseLogView(body[r.Offset():], int(items))
	if err != nil {
		return nil, fmt.Errorf("ckpt: decode: %w", err)
	}
	c.LogView = view
	return c, nil
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
// one durable Put of the framed image, crash-atomic under the backend's
// contract, with a staleness guard so two incarnations' writers can never
// regress the slot. Only after Save returns may CHECKPOINT_ADVANCE be
// announced, because peers discard logs on its strength.
type Manager struct {
	store stable.Backend

	mu     sync.Mutex
	staged map[int]*Checkpoint
	slots  map[int]*slot
}

// slot is one rank's durable checkpoint slot: its key, built once, and
// the blob buffer every Save of the rank encodes into (the Backend keeps
// no reference to what it is handed). mu serializes the rank's Saves.
type slot struct {
	mu    sync.Mutex
	key   string
	buf   []byte
	saved bool
	step  int // of the newest durable checkpoint, when saved
}

// NewManager returns a Manager writing to store.
func NewManager(store stable.Backend) *Manager {
	return &Manager{
		store:  store,
		staged: make(map[int]*Checkpoint),
		slots:  make(map[int]*slot),
	}
}

// Store returns the underlying stable-storage backend.
func (m *Manager) Store() stable.Backend { return m.store }

func key(rank int) string { return fmt.Sprintf("ckpt/%08d", rank) }

// Stage records c as rank c.Rank's newest checkpoint without touching
// stable storage. c must stay unchanged while it is staged, and while a
// Save of it runs: a caller that reuses checkpoint records rewrites one
// only once a newer checkpoint of the rank is staged and no Save of it is
// in flight.
func (m *Manager) Stage(c *Checkpoint) {
	m.mu.Lock()
	if cur := m.staged[c.Rank]; cur == nil || c.Step >= cur.Step {
		m.staged[c.Rank] = c
	}
	m.mu.Unlock()
}

// Save durably records c as rank c.Rank's current checkpoint: the framed
// blob overwrites the rank's slot with one Put, which the Backend contract
// makes crash-atomic, so a crash at any instant leaves either the old
// checkpoint or the new one, never a torn blob, at the cost of one
// group-commit barrier. Saves of stale checkpoints (an older
// incarnation's writer finishing late) are silently skipped.
func (m *Manager) Save(c *Checkpoint) error {
	m.mu.Lock()
	sl := m.slots[c.Rank]
	if sl == nil {
		sl = &slot{key: key(c.Rank)}
		m.slots[c.Rank] = sl
	}
	m.mu.Unlock()

	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.saved && sl.step >= c.Step {
		return nil
	}
	var err error
	if sl.buf, err = AppendEncode(sl.buf[:0], c); err != nil {
		return err
	}
	if err := m.store.Put(sl.key, sl.buf); err != nil {
		return fmt.Errorf("ckpt: save rank %d: %w", c.Rank, err)
	}
	sl.saved, sl.step = true, c.Step
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
	c, err := Decode(data)
	if err != nil {
		return nil, false, err
	}
	if c.Rank != rank {
		return nil, false, fmt.Errorf("ckpt: slot for rank %d holds checkpoint of rank %d", rank, c.Rank)
	}
	return c, true, nil
}
