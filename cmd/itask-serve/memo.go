package main

import (
	"bytes"
	"sync/atomic"
	"unsafe"

	"itask"
	"itask/internal/kernels"
)

// The slot counts of the door's two memos, each a power of two.
const (
	// digestSlots is far above the distinct bodies a zipf client repeats
	// (512 in the benchmark's hot workload), so two of them rarely share a
	// slot.
	digestSlots = 1 << 14
	// answerSlots bounds what the answer memo holds: at most this many
	// encoded answers, each with the payload it encodes.
	answerSlots = 1 << 12
)

// memoTable is a direct-mapped table of immutable entries: a slot holds at
// most one, and a store replaces whatever held the slot. S is its slot
// array, whose length is the slot count. Safe for concurrent use, and its
// zero value is empty.
type memoTable[E any, S ~[digestSlots]atomic.Pointer[E] | ~[answerSlots]atomic.Pointer[E]] struct {
	slots S
}

func (t *memoTable[E, S]) load(h uint64) *E { return t.slots[h%uint64(len(t.slots))].Load() }

func (t *memoTable[E, S]) store(h uint64, e *E) { t.slots[h%uint64(len(t.slots))].Store(e) }

// digestMemo maps the text of a JSON image's data array to the content
// digest of the pixels it decodes to, so a repeated body is keyed off its
// bytes and its pixels are decoded only when the result cache misses. It
// holds only texts that decoded and passed Check: a hit is a byte-identical
// array, and its digest is the one hashing its pixels gave.
type digestMemo struct {
	memoTable[digestEntry, [digestSlots]atomic.Pointer[digestEntry]]
}

type digestEntry struct{ key, digest uint64 }

func (m *digestMemo) get(key uint64) (uint64, bool) {
	if e := m.load(key); e != nil && e.key == key {
		return e.digest, true
	}
	return 0, false
}

func (m *digestMemo) put(key, digest uint64) {
	m.store(key, &digestEntry{key: key, digest: digest})
}

// memoKey hashes a data array's text with the digest's FNV lanes, seeded
// with the image's shape; the text's length and its last len%4 bytes are
// folded in serially. Two texts with one key would share a digest: the same
// 64-bit trust the result cache places in the digest itself.
func memoKey(shape []int, text []byte) uint64 {
	h := uint64(kernels.FNVOffset64)
	for _, d := range shape {
		h = (h ^ uint64(uint32(d))) * kernels.FNVPrime64
	}
	n := len(text) &^ 3
	h = kernels.HashWordsLE(h, text[:n])
	for _, b := range text[n:] {
		h = (h ^ uint64(b)) * kernels.FNVPrime64
	}
	return (h ^ uint64(len(text))) * kernels.FNVPrime64
}

// answerMemo maps a cached payload to the JSON of its detections, so a
// result-cache hit writes its answer's array without formatting a float.
// Its key is the payload's identity, the address of its backing array and
// its length: the result cache and its hot tier return the slice the
// backend answered with, unchanged, on every hit, and a new model
// version's answer is a new array. An entry holds the slice, so its
// address cannot be reused while it is memoized, and the memo trusts that
// no payload is mutated once the backend has returned it. It holds at most
// answerSlots entries: answerSlots × the largest answer's JSON, plus the
// payloads, which the result cache may already have dropped.
type answerMemo struct {
	memoTable[answerEntry, [answerSlots]atomic.Pointer[answerEntry]]
}

type answerEntry struct {
	dets []itask.Detection
	json []byte
}

// answerSlot mixes a payload's address and length into a slot hash whose
// low bits depend on all of the address's: an allocation's low address bits
// are its alignment's zeros.
func answerSlot(dets []itask.Detection) uint64 {
	h := (uint64(uintptr(unsafe.Pointer(unsafe.SliceData(dets)))) ^ uint64(len(dets))) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

func (m *answerMemo) get(dets []itask.Detection) ([]byte, bool) {
	e := m.load(answerSlot(dets))
	if e != nil && unsafe.SliceData(e.dets) == unsafe.SliceData(dets) && len(e.dets) == len(dets) {
		return e.json, true
	}
	return nil, false
}

// put memoizes a copy of json, the encoded array of dets.
func (m *answerMemo) put(dets []itask.Detection, json []byte) {
	m.store(answerSlot(dets), &answerEntry{dets: dets, json: bytes.Clone(json)})
}
