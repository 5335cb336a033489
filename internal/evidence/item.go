package evidence

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"lawgate/internal/legal"
)

// ID identifies an evidence item within a Locker.
type ID string

// Cleansing identifies a doctrine that purges derivative taint from an
// item even though a parent was illegally obtained.
type Cleansing int

// Cleansing doctrines.
const (
	// CleansingNone: the item inherits any parent taint.
	CleansingNone Cleansing = iota + 1
	// CleansingIndependentSource: the item was also obtained through a
	// lawful source independent of the tainted one.
	CleansingIndependentSource
	// CleansingInevitableDiscovery: the item would inevitably have been
	// discovered by lawful means.
	CleansingInevitableDiscovery
	// CleansingAttenuation: the connection to the illegality is so
	// attenuated that the taint has dissipated.
	CleansingAttenuation
)

var cleansingNames = map[Cleansing]string{
	CleansingNone:                "none",
	CleansingIndependentSource:   "independent source",
	CleansingInevitableDiscovery: "inevitable discovery",
	CleansingAttenuation:         "attenuation",
}

// String returns the human-readable doctrine name.
func (c Cleansing) String() string {
	if s, ok := cleansingNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Cleansing(%d)", int(c))
}

// Valid reports whether c is a defined cleansing doctrine.
func (c Cleansing) Valid() bool {
	_, ok := cleansingNames[c]
	return ok
}

// Item is one piece of evidence: content identified by hash, the
// acquisition that produced it, the process actually held, and links to
// the items it was derived from.
type Item struct {
	// ID is the Locker-assigned identifier.
	ID ID
	// Description is a short human-readable label.
	Description string
	// SHA256 is the hex-encoded content hash.
	SHA256 string
	// Size is the content length in bytes.
	Size int
	// AcquiredAt is the acquisition time recorded by the Locker clock.
	AcquiredAt time.Time
	// Acquisition is the investigative step that produced the item.
	Acquisition legal.Action
	// Held is the legal process the investigator actually possessed at
	// acquisition time.
	Held legal.Process
	// Ruling is the engine's determination for the acquisition.
	Ruling legal.Ruling
	// Parents are the items this one was derived from.
	Parents []ID
	// Cleansing, when not CleansingNone, purges inherited taint.
	Cleansing Cleansing
	// LedgerSeq is the sequence number of the acquisition record in the
	// audit ledger; the record's inclusion proof anchors the item to the
	// ledger root.
	LedgerSeq uint64
}

// LawfullyAcquired reports whether the process held at acquisition time
// satisfied what the acquisition legally required. It says nothing about
// derivative taint; see Locker.Assess for the full analysis. An item
// whose ruling is zero has no verdict, so nothing is required.
func (it *Item) LawfullyAcquired() bool {
	var required legal.Process
	if it.Ruling.Verdict != nil {
		required = it.Ruling.Required
	}
	return it.Held.Satisfies(required)
}

// hashContent returns the hex SHA-256 of content.
func hashContent(content []byte) string {
	sum := sha256.Sum256(content)
	return hex.EncodeToString(sum[:])
}
