package flightrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nfp/internal/telemetry"
)

// BundleSchema versions the incident bundle JSON; bump on breaking
// shape changes so spooled bundles stay parseable.
const BundleSchema = 1

// The spool's size and each bundle's event tail.
const (
	// maxBundles caps the spool; the oldest bundles are pruned.
	maxBundles = 16
	// eventTail caps the per-shard event-ring tail captured into a
	// bundle.
	eventTail = 256
)

// Source is one named data collector contributing a section to every
// incident bundle (config info, health report, top flows, critical
// path, ...). Collect runs on the snapshotter's writer goroutine.
type Source struct {
	Name    string
	Collect func() any
}

// SnapConfig wires a Snapshotter.
type SnapConfig struct {
	// Dir is the spool directory (created if missing).
	Dir string
	// MinInterval rate-limits bundle writes: triggers inside the
	// window are counted as suppressed, not spooled (default 30s).
	MinInterval time.Duration
	// Recorder supplies the event-ring tail (may be nil).
	Recorder *Recorder
	// Registry supplies the metric snapshot and drop ledger (may be
	// nil).
	Registry *telemetry.Registry
	// Sources contribute extra named sections.
	Sources []Source
	// Goroutines includes a goroutine stack dump in each bundle.
	Goroutines bool
	// Build self-describes the process (version, go, shards, ...).
	Build map[string]string
}

// Bundle is one self-contained incident snapshot.
type Bundle struct {
	Schema     int                        `json:"schema"`
	Reason     string                     `json:"reason"`
	TSNS       int64                      `json:"ts_ns"`
	Build      map[string]string          `json:"build,omitempty"`
	Ledger     Ledger                     `json:"ledger"`
	Events     []Event                    `json:"events"`
	Metrics    *telemetry.Snapshot        `json:"metrics,omitempty"`
	Sources    map[string]json.RawMessage `json:"sources,omitempty"`
	Goroutines string                     `json:"goroutines,omitempty"`
}

// Snapshotter spools anomaly-triggered incident bundles. Trigger is
// safe from dataplane goroutines: it does a clock check and a
// non-blocking channel send; the bundle itself is collected and
// written on a background goroutine.
type Snapshotter struct {
	cfg        SnapConfig
	lastNS     atomic.Int64
	written    atomic.Uint64
	suppressed atomic.Uint64
	trig       chan string
	done       chan struct{}
	stop       sync.Once
}

// NewSnapshotter creates the spool dir and starts the writer
// goroutine.
func NewSnapshotter(cfg SnapConfig) (*Snapshotter, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flightrec: snapshot spool dir required")
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 30 * time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flightrec: spool dir: %w", err)
	}
	s := &Snapshotter{
		cfg:  cfg,
		trig: make(chan string, 4),
		done: make(chan struct{}),
	}
	go s.run()
	return s, nil
}

// Trigger requests an incident bundle. Returns false when the
// rate-limit window suppressed it (or the writer queue is full). Fast
// and non-blocking; safe on a nil receiver.
func (s *Snapshotter) Trigger(reason string) bool {
	if s == nil {
		return false
	}
	now := time.Now().UnixNano()
	last := s.lastNS.Load()
	if now-last < int64(s.cfg.MinInterval) || !s.lastNS.CompareAndSwap(last, now) {
		s.suppressed.Add(1)
		return false
	}
	select {
	case s.trig <- reason:
		return true
	default:
		s.suppressed.Add(1)
		return false
	}
}

// Stats reports bundles written and triggers suppressed. Safe on nil.
func (s *Snapshotter) Stats() (written, suppressed uint64) {
	if s == nil {
		return 0, 0
	}
	return s.written.Load(), s.suppressed.Load()
}

// Dir returns the spool directory ("" on nil).
func (s *Snapshotter) Dir() string {
	if s == nil {
		return ""
	}
	return s.cfg.Dir
}

// Stop flushes pending triggers and stops the writer. Safe on nil.
func (s *Snapshotter) Stop() {
	if s == nil {
		return
	}
	s.stop.Do(func() { close(s.trig) })
	<-s.done
}

func (s *Snapshotter) run() {
	defer close(s.done)
	for reason := range s.trig {
		if _, err := s.WriteBundle(reason); err != nil {
			fmt.Fprintf(os.Stderr, "flightrec: incident bundle: %v\n", err)
		}
	}
}

// WriteBundle collects and spools one bundle immediately, bypassing
// the rate limit (tests and explicit operator dumps; Trigger is the
// rate-limited path). Returns the bundle file path.
func (s *Snapshotter) WriteBundle(reason string) (string, error) {
	b := s.collect(reason)
	name := fmt.Sprintf("incident-%d-%s.json", b.TSNS, sanitizeReason(reason))
	path := filepath.Join(s.cfg.Dir, name)
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	s.written.Add(1)
	s.prune()
	return path, nil
}

func (s *Snapshotter) collect(reason string) Bundle {
	b := Bundle{
		Schema: BundleSchema,
		Reason: reason,
		TSNS:   time.Now().UnixNano(),
		Build:  s.cfg.Build,
		Events: s.cfg.Recorder.Events(eventTail),
	}
	if s.cfg.Registry != nil {
		snap := s.cfg.Registry.Snapshot()
		snap.Sort()
		b.Ledger = ReadLedger(snap)
		b.Metrics = &snap
	}
	for _, src := range s.cfg.Sources {
		v := src.Collect()
		if v == nil {
			continue
		}
		data, err := json.Marshal(v)
		if err != nil {
			data, _ = json.Marshal(fmt.Sprintf("collect error: %v", err))
		}
		if b.Sources == nil {
			b.Sources = make(map[string]json.RawMessage)
		}
		b.Sources[src.Name] = data
	}
	if s.cfg.Goroutines {
		buf := make([]byte, 1<<20)
		b.Goroutines = string(buf[:runtime.Stack(buf, true)])
	}
	return b
}

// prune keeps the newest maxBundles bundles in the spool.
func (s *Snapshotter) prune() {
	entries, err := ListSpool(s.cfg.Dir)
	if err != nil || len(entries) <= maxBundles {
		return
	}
	for _, e := range entries[:len(entries)-maxBundles] {
		os.Remove(filepath.Join(s.cfg.Dir, e.File))
	}
}

func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= 48 {
			break
		}
	}
	if b.Len() == 0 {
		return "incident"
	}
	return b.String()
}

// SpoolEntry is one spooled bundle: file name, the timestamp in it, size,
// and the reason the bundle itself records.
type SpoolEntry struct {
	File   string `json:"file"`
	Reason string `json:"reason"`
	TSNS   int64  `json:"ts_ns"`
	Size   int64  `json:"size"`
}

// ListSpool enumerates incident bundles in dir, oldest first. A
// missing dir is an empty spool, not an error.
func ListSpool(dir string) ([]SpoolEntry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []SpoolEntry
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "incident-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		rest := strings.TrimSuffix(strings.TrimPrefix(name, "incident-"), ".json")
		ts, reason := int64(0), rest
		if i := strings.IndexByte(rest, '-'); i > 0 {
			if v, err := strconv.ParseInt(rest[:i], 10, 64); err == nil {
				ts, reason = v, rest[i+1:]
			}
		}
		var size int64
		if info, err := de.Info(); err == nil {
			size = info.Size()
		}
		if r, ok := bundleReason(filepath.Join(dir, name)); ok {
			reason = r
		}
		out = append(out, SpoolEntry{File: name, Reason: reason, TSNS: ts, Size: size})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TSNS != out[j].TSNS {
			return out[i].TSNS < out[j].TSNS
		}
		return out[i].File < out[j].File
	})
	return out, nil
}

// bundleReason reads a bundle's own reason: the file name holds only
// its sanitised form (panic:monitor spools as ..._panic_monitor.json).
// The reason is the bundle's second field, so five tokens reach it.
func bundleReason(path string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var tok [5]json.Token // {, "schema", N, "reason", reason
	for i := range tok {
		if tok[i], err = dec.Token(); err != nil {
			return "", false
		}
	}
	reason, ok := tok[4].(string)
	return reason, ok && tok[3] == "reason"
}

// ReadBundle loads and validates one spooled bundle.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flightrec: bundle %s: %w", filepath.Base(path), err)
	}
	if b.Schema != BundleSchema {
		return nil, fmt.Errorf("flightrec: bundle %s: schema %d, want %d",
			filepath.Base(path), b.Schema, BundleSchema)
	}
	return &b, nil
}
