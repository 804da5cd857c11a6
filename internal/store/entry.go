package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"
)

// Entry is one cached adapter.
type Entry struct {
	// Key is the content address (the request digest) the entry was
	// stored under.
	Key string
	// Target is the accelerator the adapter was synthesized for.
	Target string
	// Function is the replaced user function.
	Function string
	// Sig is the user-visible signature of the replaced function.
	Sig string
	// AdapterC is the synthesized drop-in replacement C source.
	AdapterC string
	// Trace is the trace ID of the request whose compilation produced
	// this adapter — the join key back to that request's spans, journal
	// events, and cost ledger. Provenance, not part of the content
	// address: two requests with the same digest share one entry, stamped
	// by whichever compiled it.
	Trace string
	// Checksum is the hex SHA-256 of the payload fields, written at Put
	// time and re-verified on every Get — defense in depth above the
	// log's frame checksums.
	Checksum string
}

// Each entry is stored as one record:
//
//	format u8 | <len>:Key | <len>:Target | <len>:Function | <len>:Sig
//	          | <len>:AdapterC | <len>:Trace | <len>:Checksum
//
// <len> is the field's length in bytes, in decimal with no sign and no
// leading zero. The six payload fields between the format byte and the
// checksum field are exactly the bytes Entry.Checksum hashes (SHA-256
// over "<len>:<field>" of each), so a reader verifies an entry by
// hashing one contiguous slice of the value. Decoding is strict — an
// unknown format byte, a malformed length, a length that runs past the
// end or trailing bytes reject the value — so accepted bytes re-encode
// to themselves.
const entryFormat = 1

var (
	errEntryFormat   = errors.New("store: entry record has an unknown format byte")
	errEntryLength   = errors.New("store: entry record has a malformed field length")
	errEntryOverrun  = errors.New("store: entry record field runs past the end")
	errEntryTrailing = errors.New("store: entry record has trailing bytes")
	errEntryKey      = errors.New("store: entry record names another key")
	errEntryChecksum = errors.New("store: entry record fails its checksum")
)

// appendPayload starts a record: the format byte and the six payload
// fields.
func appendPayload(e *Entry) []byte {
	fields := [...]string{e.Key, e.Target, e.Function, e.Sig, e.AdapterC, e.Trace}
	// Room for the whole record: the format byte, the checksum field
	// ("64:" and the hex digest), and each field with its length prefix.
	n := 1 + 3 + 2*sha256.Size
	for _, f := range fields {
		n += 12 + len(f)
	}
	buf := append(make([]byte, 0, n), entryFormat)
	for _, f := range fields {
		buf = appendField(buf, f)
	}
	return buf
}

func appendField(buf []byte, f string) []byte {
	buf = strconv.AppendUint(buf, uint64(len(f)), 10)
	buf = append(buf, ':')
	return append(buf, f...)
}

// sealEntry computes e's checksum, stores it in e.Checksum, and returns
// e's record.
func sealEntry(e *Entry) []byte {
	buf := appendPayload(e)
	sum := sha256.Sum256(buf[1:])
	e.Checksum = hex.EncodeToString(sum[:])
	return appendField(buf, e.Checksum)
}

// walkEntry checks one record's framing in place and returns where each
// of its seven fields lies in val, without copying anything. payloadEnd
// is where the checksummed payload val[1:payloadEnd] ends.
func walkEntry(val []byte) (spans [7][2]int, payloadEnd int, err error) {
	if len(val) == 0 || val[0] != entryFormat {
		return spans, 0, errEntryFormat
	}
	off := 1
	for i := range spans {
		if i == len(spans)-1 {
			payloadEnd = off
		}
		n := 0
		start := off
		for ; off < len(val) && val[off] != ':'; off++ {
			c := val[off]
			if c < '0' || c > '9' || (off > start && n == 0) {
				return spans, 0, errEntryLength // not a digit, or a leading zero
			}
			n = n*10 + int(c-'0')
			if n > len(val) {
				return spans, 0, errEntryOverrun
			}
		}
		if off == start || off == len(val) {
			return spans, 0, errEntryLength // no digits, or no ':'
		}
		off++
		if n > len(val)-off {
			return spans, 0, errEntryOverrun
		}
		spans[i] = [2]int{off, off + n}
		off += n
	}
	if off != len(val) {
		return spans, 0, errEntryTrailing
	}
	return spans, payloadEnd, nil
}

// decodeEntry parses one record without verifying it. The fields are
// substrings of a single copy of val.
func decodeEntry(val []byte) (e Entry, payloadEnd int, err error) {
	spans, payloadEnd, err := walkEntry(val)
	if err != nil {
		return Entry{}, 0, err
	}
	s := string(val)
	fields := [...]*string{&e.Key, &e.Target, &e.Function, &e.Sig, &e.AdapterC, &e.Trace, &e.Checksum}
	for i, f := range fields {
		*f = s[spans[i][0]:spans[i][1]]
	}
	return e, payloadEnd, nil
}

// checkEntry verifies a record in place — it must parse and match its
// own checksum — and returns its key as a slice of val. Open indexes
// records through it without copying them.
func checkEntry(val []byte) ([]byte, error) {
	spans, payloadEnd, err := walkEntry(val)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(val[1:payloadEnd])
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	if string(hx[:]) != string(val[spans[6][0]:spans[6][1]]) {
		return nil, errEntryChecksum
	}
	return val[spans[0][0]:spans[0][1]], nil
}

// openEntry decodes the record stored under key and verifies it: it must
// parse, match its own checksum, and name key. Every read that serves an
// entry goes through here.
func openEntry(key string, val []byte) (Entry, error) {
	k, err := checkEntry(val)
	if err != nil {
		return Entry{}, err
	}
	if string(k) != key {
		return Entry{}, errEntryKey
	}
	e, _, err := decodeEntry(val)
	return e, err
}
