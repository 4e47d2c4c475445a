// Package wal is the write-ahead log of the durability subsystem: an
// append-only sequence of length-prefixed, CRC-checksummed records, each
// holding one logical mutating operation of the belief store (see Op).
//
// # File layout
//
// A log begins with a fixed 16-byte header:
//
//	offset 0  magic   "BDBWAL\x00" (7 bytes)
//	offset 7  version 1 byte (currently 1)
//	offset 8  epoch   8 bytes little-endian
//
// The epoch is bumped every time the log is reset by a checkpoint; together
// with the snapshot's recorded (epoch, applied) pair it decides how many
// leading WAL records the snapshot already covers (see internal/store and
// the Durability section of DESIGN.md).
//
// Records follow the header back to back:
//
//	offset 0  payload length  4 bytes little-endian (uint32)
//	offset 4  CRC-32C         4 bytes little-endian, over the payload only
//	offset 8  payload         encoded Op, see op.go
//
// # Torn-write policy
//
// A crash can leave a partially written record at the tail. Recover stops
// at the first record whose frame is incomplete or whose checksum does not
// match, reports the byte offset of the clean prefix, and the opener
// truncates the file there before appending again. Records beyond a corrupt
// one are unreachable by construction (frame boundaries after the
// corruption cannot be trusted), so a mid-file checksum failure also ends
// the clean prefix; because every append is synced before the mutation is
// acknowledged, such a record was never reported committed.
//
// # Batches
//
// AppendGroups journals groups of operations under one commit boundary,
// all issued as a single Write and acknowledged by a single Sync (the
// group-commit primitive). A group of one untokened operation is written
// as its bare record; any other group is a BatchBegin marker record
// followed by the member records. The framing is unchanged — each record
// keeps its own length prefix and CRC — but recovery additionally discards
// a trailing group whose members were cut off by a torn write: the group's
// sync never completed, so it was never acknowledged, and a group applies
// all-or-nothing.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Format constants. Bump Version when the header or framing changes and
// keep the golden-file fixtures for the old version decodable or loudly
// rejected (never silently misread).
const (
	Magic     = "BDBWAL\x00"
	Version   = 1
	HeaderLen = len(Magic) + 1 + 8 // magic + version + epoch
)

// maxRecordLen bounds a single record so a garbage length field cannot
// drive a multi-gigabyte allocation; any frame claiming more is torn.
const maxRecordLen = 1 << 28

// castagnoli is the CRC-32C table (the polynomial used by modern storage
// systems; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of the payload.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// AppendHeader appends a file header with the given epoch to dst.
func AppendHeader(dst []byte, epoch uint64) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version)
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

// AppendRecord appends one framed record (length, CRC-32C, payload) to dst.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// ParseHeader validates the magic and version and returns the epoch.
func ParseHeader(data []byte) (epoch uint64, err error) {
	if len(data) < HeaderLen {
		return 0, fmt.Errorf("wal: short header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("wal: bad magic (not a WAL file)")
	}
	if v := data[len(Magic)]; v != Version {
		return 0, fmt.Errorf("wal: unsupported format version %d (supported: %d)", v, Version)
	}
	return binary.LittleEndian.Uint64(data[len(Magic)+1:]), nil
}

// Recover parses a whole log image. It returns the payloads of every intact
// record, the log epoch, and cleanLen, the byte length of the longest clean
// prefix (header included): parsing stops without error at the first torn
// or checksum-failing record. A header error (wrong magic or unsupported
// version) is returned as err.
func Recover(data []byte) (payloads [][]byte, epoch uint64, cleanLen int64, err error) {
	epoch, err = ParseHeader(data)
	if err != nil {
		return nil, 0, 0, err
	}
	off := int64(HeaderLen)
	for {
		rest := data[off:]
		if len(rest) < 8 {
			break // torn frame header (or exact end of log)
		}
		n := int64(binary.LittleEndian.Uint32(rest[:4]))
		if n > maxRecordLen || 8+n > int64(len(rest)) {
			break // torn payload
		}
		payload := rest[8 : 8+n]
		if binary.LittleEndian.Uint32(rest[4:8]) != Checksum(payload) {
			break // corrupt record
		}
		payloads = append(payloads, payload)
		off += 8 + n
	}
	return payloads, epoch, off, nil
}
