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
	// Sig is the user-visible signature of the replaced function — the
	// key of the by-signature index ("all ffta adapters for this
	// signature" is one index walk).
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
	// page checksums.
	Checksum string
}

// The value stored under a primary key is one entry record:
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

// encodeEntry returns e's record with the checksum field as given.
func encodeEntry(e *Entry) []byte {
	return appendField(appendPayload(e), e.Checksum)
}

// sealEntry computes e's checksum, stores it in e.Checksum, and returns
// e's record.
func sealEntry(e *Entry) []byte {
	buf := appendPayload(e)
	sum := sha256.Sum256(buf[1:])
	e.Checksum = hex.EncodeToString(sum[:])
	return appendField(buf, e.Checksum)
}

// decodeEntry parses one record without verifying it. The fields are
// substrings of a single copy of val; payloadEnd is where the checksummed
// payload val[1:payloadEnd] ends.
func decodeEntry(val []byte) (e Entry, payloadEnd int, err error) {
	if len(val) == 0 || val[0] != entryFormat {
		return Entry{}, 0, errEntryFormat
	}
	s := string(val)
	fields := [...]*string{&e.Key, &e.Target, &e.Function, &e.Sig, &e.AdapterC, &e.Trace, &e.Checksum}
	off := 1
	for i, f := range fields {
		if i == len(fields)-1 {
			payloadEnd = off
		}
		n := 0
		start := off
		for ; off < len(s) && s[off] != ':'; off++ {
			c := s[off]
			if c < '0' || c > '9' || (off > start && n == 0) {
				return Entry{}, 0, errEntryLength // not a digit, or a leading zero
			}
			n = n*10 + int(c-'0')
			if n > len(s) {
				return Entry{}, 0, errEntryOverrun
			}
		}
		if off == start || off == len(s) {
			return Entry{}, 0, errEntryLength // no digits, or no ':'
		}
		off++
		if n > len(s)-off {
			return Entry{}, 0, errEntryOverrun
		}
		*f = s[off : off+n]
		off += n
	}
	if off != len(s) {
		return Entry{}, 0, errEntryTrailing
	}
	return e, payloadEnd, nil
}

// openEntry decodes the record stored under key and verifies it: it must
// parse, name key, and match its own checksum. Every read that serves or
// vouches for an entry goes through here.
func openEntry(key string, val []byte) (Entry, error) {
	e, payloadEnd, err := decodeEntry(val)
	if err != nil {
		return Entry{}, err
	}
	if e.Key != key {
		return Entry{}, errEntryKey
	}
	sum := sha256.Sum256(val[1:payloadEnd])
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	if string(hx[:]) != e.Checksum {
		return Entry{}, errEntryChecksum
	}
	return e, nil
}
