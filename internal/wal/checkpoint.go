package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Checkpoint files live beside the segments as ckpt-<seq>.ck, written
// atomically (temp file + fsync + rename + directory fsync) so a crash
// mid-checkpoint leaves the previous one untouched. The payload is
// opaque to this package — the engine serializes its own state —
// wrapped in a magic header and CRC32C so Load can skip a corrupt
// newest checkpoint and fall back to an older valid one.
//
//	8B magic | u32 len | u32 crc | payload

var ckptMagic = []byte{'C', 'M', 'H', 'C', 'K', 'P', 0, 1}

const ckptHdrLen = 16

func ckptName(seq uint64) string { return fmt.Sprintf("ckpt-%08d.ck", seq) }

// keepCheckpoints is how many recent checkpoint files survive a write;
// older ones are the fallback chain and anything beyond it is pruned.
const keepCheckpoints = 2

func checkpointSeqs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "ckpt-%08d.ck", &seq); n == 1 {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// WriteCheckpoint durably writes a new checkpoint with the next
// sequence number and prunes all but the newest keepCheckpoints files.
// The group buffer goes first: a NextLSN frontier never passes the file.
func (w *Log) WriteCheckpoint(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("wal: checkpoint on closed log")
	}
	if err := w.writeLocked(); err != nil {
		return 0, err
	}
	seq := w.ckptSeq + 1
	buf := make([]byte, 0, ckptHdrLen+len(payload))
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)

	tmp := filepath.Join(w.opts.Dir, ckptName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	final := filepath.Join(w.opts.Dir, ckptName(seq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := w.syncDir(w.opts.Dir); err != nil {
		return 0, err
	}
	w.ckptSeq = seq
	w.ckpts++

	if seqs, err := checkpointSeqs(w.opts.Dir); err == nil && len(seqs) > keepCheckpoints {
		for _, old := range seqs[:len(seqs)-keepCheckpoints] {
			os.Remove(filepath.Join(w.opts.Dir, ckptName(old)))
		}
	}
	return seq, nil
}

// LoadCheckpoint returns the payload and sequence number of the newest
// structurally valid checkpoint, skipping corrupt ones. With no valid
// checkpoint on disk it returns (nil, 0, nil): recovery then replays
// the whole log from a blank engine.
func (w *Log) LoadCheckpoint() ([]byte, uint64, error) {
	seqs, err := checkpointSeqs(w.opts.Dir)
	if err != nil {
		return nil, 0, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(w.opts.Dir, ckptName(seqs[i])))
		if err != nil {
			continue
		}
		payload, ok := parseCheckpoint(data)
		if !ok {
			continue
		}
		return payload, seqs[i], nil
	}
	return nil, 0, nil
}

func parseCheckpoint(data []byte) ([]byte, bool) {
	if len(data) < ckptHdrLen || string(data[:segMagicLen]) != string(ckptMagic) {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	crc := binary.LittleEndian.Uint32(data[12:])
	if len(data) != ckptHdrLen+n {
		return nil, false
	}
	payload := data[ckptHdrLen:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, false
	}
	return payload, true
}

func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
