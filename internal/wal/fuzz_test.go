package wal

import (
	"reflect"
	"testing"

	"repro/internal/geo"
)

// FuzzWALDecode throws arbitrary byte strings at the log scanner: it
// must never panic, never allocate unboundedly, and classify every
// input as clean, torn, or corrupt. Whatever records it does accept
// must round-trip through the encoder byte-identically — the decoder
// cannot invent state the writer never produced.
func FuzzWALDecode(f *testing.F) {
	// Seed with real images: empty, clean, torn, and corrupted logs.
	var clean []byte
	clean = appendFrame(logMagic[:len(logMagic):len(logMagic)],
		appendGenesisPayload(nil, Genesis{Base: 3, ConfigDigest: 0xabc, Name: "e-sharing"}))
	clean = appendFrame(clean, appendDecisionPayload(nil, DecisionRecord{
		Dest: geo.Pt(1, 2), Station: geo.Pt(3, 4), StationIndex: 1, Opened: true, Walk: 2.5,
	}))
	f.Add([]byte{})
	f.Add([]byte(logMagic))
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	mut := append([]byte(nil), clean...)
	mut[len(logMagic)+frameHeaderLen+2] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ScanLog("fuzz", data)
		if err != nil {
			if res != nil {
				t.Fatal("error with non-nil result")
			}
			return
		}
		if res.TornOffset > int64(len(data)) {
			t.Fatalf("torn offset %d beyond %d-byte input", res.TornOffset, len(data))
		}
		if len(res.Records) > 0 && res.Genesis == nil {
			t.Fatal("records decoded without a genesis")
		}
		// Re-encode everything the scan accepted; the clean prefix of
		// the input must be exactly the re-encoding.
		var out []byte
		out = append(out, logMagic...)
		if res.Genesis != nil {
			out = appendFrame(out, appendGenesisPayload(nil, *res.Genesis))
		}
		for _, r := range res.Records {
			out = appendFrame(out, appendDecisionPayload(nil, r))
		}
		end := int64(len(data))
		if res.TornOffset >= 0 {
			end = res.TornOffset
		}
		if res.Genesis == nil {
			// Nothing decoded: the whole input must be a torn prefix
			// of a new file (checked above via TornOffset).
			return
		}
		if int64(len(out)) != end || !reflect.DeepEqual(out, data[:end]) {
			t.Fatalf("accepted prefix does not round-trip: %d bytes re-encoded, %d accepted", len(out), end)
		}
	})
}
