package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// jsonEvent is the stable on-disk form of an Event.
type jsonEvent struct {
	Kind         string `json:"kind"`
	Rank         int    `json:"rank"`
	Peer         int    `json:"peer,omitempty"`
	SendIndex    int64  `json:"sendIndex,omitempty"`
	DeliverIndex int64  `json:"deliverIndex,omitempty"`
	Step         int    `json:"step,omitempty"`
	Count        int64  `json:"count,omitempty"`
	Demand       *int64 `json:"demand,omitempty"` // nil: no requirement recorded
	Resent       bool   `json:"resent,omitempty"`
	Phase        string `json:"phase,omitempty"` // recovery-phase spans
	Dur          int64  `json:"dur,omitempty"`   // span nanoseconds
	Seq          int    `json:"seq"`
	// Causal span identifiers, lowercase hex without a 0x
	// prefix — uint64s would lose precision in JSON tooling that reads
	// numbers as float64. Absent on untraced events.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// jsonHeader is the first line of every trace file: the format version
// plus run metadata. It is distinguishable from jsonEvent because events
// always carry a non-empty "kind" and never a "header" field.
type jsonHeader struct {
	Header    int    `json:"header"` // format version of the header line
	Transport string `json:"transport,omitempty"`
	Dropped   int    `json:"dropped,omitempty"` // events evicted by a bounded recorder
	// Digest is the checker state the retained events start from: what
	// a bounded recorder's evicted prefix left behind, or a resumed
	// run's restart seed. Absent when the events start from nothing.
	Digest *checker `json:"digest,omitempty"`
}

// headerVersion is the trace file format version, the only one Import
// reads. Version 4 carries recovery-phase spans ("recovery-phase" with
// phase and dur), the recovery-exchange events ("rollback", "response",
// "ingest-rejected") and the causal span identifiers (hex
// "trace"/"span"/"parent" on send and deliver events).
const headerVersion = 4

var kindNames = map[EventKind]string{
	EvSend:             "send",
	EvDeliver:          "deliver",
	EvCheckpoint:       "checkpoint",
	EvKill:             "kill",
	EvRecover:          "recover",
	EvRecoveryComplete: "recovery-complete",
	EvRecoveryPhase:    "recovery-phase",
	EvRollback:         "rollback",
	EvResponse:         "response",
	EvIngestRejected:   "ingest-rejected",
}

var kindValues = func() map[string]EventKind {
	m := make(map[string]EventKind, len(kindNames))
	for k, v := range kindNames {
		m[v] = k
	}
	return m
}()

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Export writes the recorded events to w as JSON Lines, one event per
// line, suitable for offline analysis or re-import. A header line
// carrying the format version, the stamped transport kind
// (SetTransport), a bounded recorder's dropped count and the digest the
// events start from precedes the events, so the imported copy validates
// exactly as r does.
func (r *Recorder) Export(w io.Writer) error {
	r.mu.Lock()
	h := jsonHeader{Header: headerVersion, Transport: r.transport, Dropped: r.dropped}
	if r.digest != nil && (len(r.digest.Ranks) > 0 || len(r.digest.Problems) > 0) {
		h.Digest = r.digest.clone()
	}
	events := r.eventsLocked()
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("trace: export header: %w", err)
	}
	for _, e := range events {
		je := jsonEvent{
			Kind: e.Kind.String(), Rank: e.Rank, Peer: e.Peer,
			SendIndex: e.SendIndex, DeliverIndex: e.DeliverIndex,
			Step: e.Step, Count: e.Count, Resent: e.Resent,
			Phase: e.Phase, Dur: e.Dur, Seq: e.Seq,
		}
		if e.Kind == EvDeliver && e.Demand >= 0 {
			d := e.Demand
			je.Demand = &d
		}
		if e.Span != 0 {
			je.Trace = strconv.FormatUint(e.Trace, 16)
			je.Span = strconv.FormatUint(e.Span, 16)
			if e.Parent != 0 {
				je.Parent = strconv.FormatUint(e.Parent, 16)
			}
		}
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("trace: export: %w", err)
		}
	}
	return nil
}

// WriteFile exports the recorder into the file at path, creating its
// directory: a trace for offline analysis, or a flight dump of a bounded
// recorder's current window.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := r.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Import reads a JSON Lines trace written by Export into a fresh
// Recorder. The first line must be a version-4 header; it restores the
// recorded transport kind, dropped count and digest. An empty input is
// an empty trace.
func Import(rd io.Reader) (*Recorder, error) {
	dec := json.NewDecoder(rd)
	rec := &Recorder{}
	var h jsonHeader
	if err := dec.Decode(&h); err == io.EOF {
		return rec, nil
	} else if err != nil {
		return nil, fmt.Errorf("trace: import: %w", err)
	}
	if h.Header != headerVersion {
		return nil, fmt.Errorf("trace: import: first line is not a version %d header (got version %d)", headerVersion, h.Header)
	}
	rec.transport = h.Transport
	// A dropped count marks a bounded-recorder export: the retained
	// events continue the original Seq numbering.
	rec.dropped = h.Dropped
	rec.seq = h.Dropped
	if h.Digest != nil {
		if err := h.Digest.repair(); err != nil {
			return nil, fmt.Errorf("trace: import: digest: %w", err)
		}
		rec.digest = h.Digest
	}
	for {
		var je jsonEvent
		if err := dec.Decode(&je); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: import: %w", err)
		}
		kind, ok := kindValues[je.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: import: unknown kind %q", je.Kind)
		}
		var demand int64
		if kind == EvDeliver {
			demand = -1 // Export omits the no-requirement sentinel
		}
		if je.Demand != nil {
			demand = *je.Demand
		}
		parseHex := func(s, field string) (uint64, error) {
			if s == "" {
				return 0, nil
			}
			v, err := strconv.ParseUint(s, 16, 64)
			if err != nil {
				return 0, fmt.Errorf("trace: import: bad %s %q: %w", field, s, err)
			}
			return v, nil
		}
		ev := Event{
			Kind: kind, Rank: je.Rank, Peer: je.Peer,
			SendIndex: je.SendIndex, DeliverIndex: je.DeliverIndex,
			Step: je.Step, Count: je.Count, Demand: demand, Resent: je.Resent,
			Phase: je.Phase, Dur: je.Dur,
		}
		var err error
		if ev.Trace, err = parseHex(je.Trace, "trace id"); err != nil {
			return nil, err
		}
		if ev.Span, err = parseHex(je.Span, "span id"); err != nil {
			return nil, err
		}
		if ev.Parent, err = parseHex(je.Parent, "parent id"); err != nil {
			return nil, err
		}
		rec.add(ev)
	}
	return rec, nil
}

// Summary aggregates a trace into per-rank counts for human inspection.
type Summary struct {
	Rank        int
	Sends       int
	Resends     int
	Deliveries  int
	Checkpoints int
	Kills       int
	Recoveries  int
}

// Summarize computes per-rank summaries, ordered by rank.
func (r *Recorder) Summarize() []Summary {
	byRank := map[int]*Summary{}
	get := func(rank int) *Summary {
		s := byRank[rank]
		if s == nil {
			s = &Summary{Rank: rank}
			byRank[rank] = s
		}
		return s
	}
	for _, e := range r.Events() {
		switch e.Kind {
		case EvSend:
			if e.Resent {
				get(e.Rank).Resends++
			} else {
				get(e.Rank).Sends++
			}
		case EvDeliver:
			get(e.Rank).Deliveries++
		case EvCheckpoint:
			get(e.Rank).Checkpoints++
		case EvKill:
			get(e.Rank).Kills++
		case EvRecover:
			get(e.Rank).Recoveries++
		}
	}
	out := make([]Summary, 0, len(byRank))
	for _, s := range byRank {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// FormatSummaries renders Summarize output as an aligned table.
func FormatSummaries(sums []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %8s %8s %10s %11s %6s %10s\n",
		"rank", "sends", "resends", "deliveries", "checkpoints", "kills", "recoveries")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-5d %8d %8d %10d %11d %6d %10d\n",
			s.Rank, s.Sends, s.Resends, s.Deliveries, s.Checkpoints, s.Kills, s.Recoveries)
	}
	return b.String()
}
