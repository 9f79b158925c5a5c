package campaign

// Checkpoint files make a campaign restartable: with Config.CheckpointDir
// set, every die record is appended to a JSONL file in that directory as it
// is aggregated (strictly in die order, by the single aggregating
// goroutine), and a resumed run replays the file's valid prefix through the
// aggregator before dispatching the remainder. Because records are appended
// only after the in-order merge point, the file's contents are by
// construction dies 0..k-1 with no gaps — a killed run can at worst leave a
// torn final line, which resume detects and truncates.
//
// The journal is a contiguous prefix by design. When a die fails, dies
// after it that other workers had already finished are not journaled: they
// wait behind the gap in the reorder window, are dropped with the failed
// run, and are recomputed on resume.
//
// The file is named by the campaign's axes digest (the same canonical
// description that keys per-die cache records), so resuming with changed
// axes opens a different file instead of silently mixing incompatible
// records, and a header line pins the schema, digest, and record shape for
// a second line of defense.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"killi/internal/simcache"
)

// checkpointHeader is the file's first line.
type checkpointHeader struct {
	Type      string `json:"type"`
	Schema    int    `json:"schema"`
	Axes      string `json:"axes"`
	Workloads int    `json:"workloads"`
	Cells     int    `json:"cells"`
}

// checkpointPath names the campaign's checkpoint file inside dir. Exported
// logic lives here so killi-fleet tests can locate the file.
func checkpointPath(dir, axesKey string) string {
	return filepath.Join(dir, "campaign-"+axesKey[:16]+".jsonl")
}

// checkpoint is an open, append-position checkpoint file. Records are
// written with plain Write (no per-record fsync): surviving SIGKILL only
// requires the write() to have reached the kernel, and a torn tail from a
// crash mid-write is truncated on resume.
type checkpoint struct {
	f *os.File
}

// openCheckpoint opens (and with cfg.Resume, reads) the campaign's
// checkpoint. It returns the open file positioned for appending plus the
// contiguous prefix of valid records to replay (nil unless resuming). A
// missing, header-mismatched, or otherwise unusable file under -resume
// degrades to a fresh checkpoint — the same silently-recompute contract the
// result cache has — never to mixed records.
func openCheckpoint(cfg *Config, cells int) (*checkpoint, []simcache.DieRecord, error) {
	if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint dir: %w", err)
	}
	axes := simcache.Key(cfg.axesDesc())
	path := checkpointPath(cfg.CheckpointDir, axes)
	if cfg.Resume {
		if recs, validLen, ok := readCheckpoint(path, axes, len(cfg.Workloads), cells); ok {
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, nil, fmt.Errorf("campaign: reopening checkpoint: %w", err)
			}
			// Drop the torn tail (if any) so appended records continue the
			// contiguous prefix.
			if err := f.Truncate(validLen); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("campaign: truncating checkpoint tail: %w", err)
			}
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("campaign: seeking checkpoint: %w", err)
			}
			return &checkpoint{f: f}, recs, nil
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: creating checkpoint: %w", err)
	}
	h := checkpointHeader{Type: "campaign-checkpoint", Schema: simcache.SchemaVersion, Axes: axes, Workloads: len(cfg.Workloads), Cells: cells}
	line, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: checkpoint header: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: checkpoint header: %w", err)
	}
	return &checkpoint{f: f}, nil, nil
}

// readCheckpoint parses the file's valid prefix: a matching header followed
// by records for dies 0, 1, 2, ... each with the expected shape. It stops at
// the first missing newline (torn tail), parse failure, out-of-order die,
// or shape mismatch, returning everything before it and the byte length of
// the valid prefix. ok is false when the file is unusable entirely (absent,
// or its header doesn't match this campaign).
func readCheckpoint(path, axes string, workloads, cells int) (recs []simcache.DieRecord, validLen int64, ok bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	first := true
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			break // torn tail from a killed writer
		}
		line := buf[:nl]
		if first {
			var h checkpointHeader
			if json.Unmarshal(line, &h) != nil ||
				h.Type != "campaign-checkpoint" ||
				h.Schema != simcache.SchemaVersion ||
				h.Axes != axes ||
				h.Workloads != workloads ||
				h.Cells != cells {
				return nil, 0, false
			}
			first = false
		} else {
			var r simcache.DieRecord
			if json.Unmarshal(line, &r) != nil || r.Die != len(recs) || !r.Shaped(workloads, cells) {
				break
			}
			recs = append(recs, r)
		}
		validLen += int64(nl + 1)
		buf = buf[nl+1:]
	}
	if first {
		return nil, 0, false
	}
	return recs, validLen, true
}

// append writes one die record as a line. Called only from the aggregating
// goroutine, in die order.
func (c *checkpoint) append(rec *dieRecord) error {
	line, err := json.Marshal(rec.toCache())
	if err != nil {
		return fmt.Errorf("campaign: checkpoint record: %w", err)
	}
	if _, err := c.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("campaign: checkpoint record: %w", err)
	}
	return nil
}

// close syncs and closes the file. Idempotent so error paths can call it
// unconditionally.
func (c *checkpoint) close() error {
	if c.f == nil {
		return nil
	}
	f := c.f
	c.f = nil
	serr := f.Sync()
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("campaign: closing checkpoint: %w", serr)
	}
	return nil
}
