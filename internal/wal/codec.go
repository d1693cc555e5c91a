// Package wal implements the durable decision log behind the serving
// path: an append-only, checksummed, length-prefixed binary log of
// placement decisions, plus a snapshot file that bounds replay time.
// The log records the exact request stream the placer consumed, so
// recovery re-drives it through a freshly seeded placer and arrives at
// bit-identical state (see core.DurablePlacer).
//
// # File format
//
// A log file is an 8-byte magic followed by frames. Each frame is
//
//	u32 LE payload length | u32 LE CRC-32 (IEEE) of payload | payload
//
// and the payload's first byte is the record type. The first record is
// always a genesis record naming the engine, its config digest and the
// number of records already covered by the snapshot file; decision
// records follow in arrival order.
//
// # Torn tails vs corruption
//
// A crash can tear the last frame; nothing else. Scan therefore
// classifies damage by position: an incomplete frame that runs to the
// exact end of the file is a torn tail (recoverable — the bytes are
// discarded and the log continues from the last full frame), while a
// damaged frame with more data after it, an implausible length or a
// mid-file checksum failure is corruption (the log refuses to load
// rather than guess at state).
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/geo"
)

// logMagic opens every log file; snapMagic every snapshot file. The
// trailing version byte is bumped on any layout change.
var (
	logMagic  = []byte("ESWAL\x00\x001")
	snapMagic = []byte("ESSNAP\x001")
)

// Record types (payload byte 0).
const (
	recGenesis  = 'G'
	recDecision = 'D'
)

// genesisVersion is the genesis payload layout version.
const genesisVersion uint16 = 1

// maxRecordLen bounds a frame's payload so a corrupted length prefix
// cannot trigger a huge allocation: decisions are fixed size, and a
// genesis only carries a short engine name.
const maxRecordLen = 1 << 16

// frameHeaderLen is the length prefix plus the checksum.
const frameHeaderLen = 8

// Genesis is the mandatory first record of every log file.
type Genesis struct {
	// Base is the number of records already covered by the snapshot
	// file when this log was (re)created; replay skips that many.
	Base uint64
	// ConfigDigest fingerprints the placer's construction inputs
	// (core.DurablePlacer.ConfigDigest); recovery refuses a log whose
	// digest does not match the freshly built placer.
	ConfigDigest uint64
	// Name is the placer's algorithm name, for error messages.
	Name string
}

// DecisionRecord logs one accepted placement: the request destination
// and the decision the placer returned for it. Coordinates and the
// walk figure are stored as float bit patterns, so replay verification
// can demand exact equality.
type DecisionRecord struct {
	Dest         geo.Point
	Station      geo.Point
	StationIndex int
	Opened       bool
	Walk         float64
}

// ---- encoding ----------------------------------------------------------

// appendFrame appends the framed payload (length, checksum, payload).
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

func appendGenesisPayload(dst []byte, g Genesis) []byte {
	dst = append(dst, recGenesis)
	dst = binary.LittleEndian.AppendUint16(dst, genesisVersion)
	dst = binary.LittleEndian.AppendUint64(dst, g.Base)
	dst = binary.LittleEndian.AppendUint64(dst, g.ConfigDigest)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.Name)))
	return append(dst, g.Name...)
}

func appendDecisionPayload(dst []byte, d DecisionRecord) []byte {
	dst = append(dst, recDecision)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Dest.X))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Dest.Y))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Station.X))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Station.Y))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Walk))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(d.StationIndex)))
	opened := byte(0)
	if d.Opened {
		opened = 1
	}
	return append(dst, opened)
}

// decisionPayloadLen is a decision record's fixed payload size.
const decisionPayloadLen = 1 + 6*8 + 1

// ---- decoding ----------------------------------------------------------

// DecodeRecord decodes one checksum-verified frame payload into a
// Genesis or a DecisionRecord.
func DecodeRecord(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("wal: empty record payload")
	}
	switch payload[0] {
	case recGenesis:
		return decodeGenesis(payload)
	case recDecision:
		return decodeDecision(payload)
	default:
		return nil, fmt.Errorf("wal: unknown record type %#x", payload[0])
	}
}

func decodeGenesis(p []byte) (Genesis, error) {
	const fixed = 1 + 2 + 8 + 8 + 4
	if len(p) < fixed {
		return Genesis{}, fmt.Errorf("wal: genesis record truncated (%d bytes)", len(p))
	}
	if v := binary.LittleEndian.Uint16(p[1:]); v != genesisVersion {
		return Genesis{}, fmt.Errorf("wal: genesis version %d, want %d", v, genesisVersion)
	}
	g := Genesis{
		Base:         binary.LittleEndian.Uint64(p[3:]),
		ConfigDigest: binary.LittleEndian.Uint64(p[11:]),
	}
	nameLen := binary.LittleEndian.Uint32(p[19:])
	if uint64(fixed)+uint64(nameLen) != uint64(len(p)) {
		return Genesis{}, fmt.Errorf("wal: genesis name length %d does not match payload", nameLen)
	}
	g.Name = string(p[fixed:])
	return g, nil
}

func decodeDecision(p []byte) (DecisionRecord, error) {
	if len(p) != decisionPayloadLen {
		return DecisionRecord{}, fmt.Errorf("wal: decision record is %d bytes, want %d", len(p), decisionPayloadLen)
	}
	if p[49] > 1 {
		return DecisionRecord{}, fmt.Errorf("wal: decision opened flag %d", p[49])
	}
	return DecisionRecord{
		Dest: geo.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(p[1:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(p[9:])),
		},
		Station: geo.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(p[17:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(p[25:])),
		},
		Walk:         math.Float64frombits(binary.LittleEndian.Uint64(p[33:])),
		StationIndex: int(int64(binary.LittleEndian.Uint64(p[41:]))),
		Opened:       p[49] == 1,
	}, nil
}

// ---- scanning ----------------------------------------------------------

// CorruptionError reports damage that cannot be a torn tail; the log
// refuses to load rather than reconstruct wrong state.
type CorruptionError struct {
	File   string
	Offset int64
	Reason string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("wal: %s corrupt at offset %d: %s", e.File, e.Offset, e.Reason)
}

// ScanResult is the outcome of scanning a log image.
type ScanResult struct {
	// Genesis is the log's first record; nil when the tail tore before
	// a complete genesis was ever written (a crash during file
	// creation, before any decision could have been logged).
	Genesis *Genesis
	// Records holds the decisions after the genesis, in log order.
	Records []DecisionRecord
	// TornOffset is the byte offset of a torn tail to truncate at, or
	// -1 when the image ends on a frame boundary.
	TornOffset int64
}

// ScanLog decodes a log image, classifying damage per the package
// policy: returns a *CorruptionError for mid-file damage, and reports
// (never errors on) a torn tail via TornOffset.
func ScanLog(name string, data []byte) (*ScanResult, error) {
	res := &ScanResult{TornOffset: -1}
	if len(data) < len(logMagic) {
		if bytes.HasPrefix(logMagic, data) {
			res.TornOffset = 0
			return res, nil
		}
		return nil, &CorruptionError{File: name, Offset: 0, Reason: "bad magic"}
	}
	if !bytes.Equal(data[:len(logMagic)], logMagic) {
		return nil, &CorruptionError{File: name, Offset: 0, Reason: "bad magic"}
	}
	off := int64(len(logMagic))
	for {
		rem := int64(len(data)) - off
		if rem == 0 {
			return res, nil
		}
		if rem < frameHeaderLen {
			res.TornOffset = off
			return res, nil
		}
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		if length == 0 || length > maxRecordLen {
			return nil, &CorruptionError{File: name, Offset: off,
				Reason: fmt.Sprintf("implausible record length %d", length)}
		}
		if off+frameHeaderLen+length > int64(len(data)) {
			res.TornOffset = off
			return res, nil
		}
		sum := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+frameHeaderLen : off+frameHeaderLen+length]
		if crc32.ChecksumIEEE(payload) != sum {
			if off+frameHeaderLen+length == int64(len(data)) {
				// The damaged frame is the last thing in the file: a
				// torn write. Anywhere else it would be corruption.
				res.TornOffset = off
				return res, nil
			}
			return nil, &CorruptionError{File: name, Offset: off, Reason: "checksum mismatch"}
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			// The frame checksummed clean but does not decode: that is
			// a writer bug or tampering, never a torn write.
			return nil, &CorruptionError{File: name, Offset: off, Reason: err.Error()}
		}
		switch rec := rec.(type) {
		case Genesis:
			if res.Genesis != nil {
				return nil, &CorruptionError{File: name, Offset: off, Reason: "duplicate genesis record"}
			}
			res.Genesis = &rec
		case DecisionRecord:
			if res.Genesis == nil {
				return nil, &CorruptionError{File: name, Offset: off, Reason: "record precedes genesis"}
			}
			res.Records = append(res.Records, rec)
		}
		off += frameHeaderLen + length
	}
}
