package evidence

import (
	"errors"
	"testing"

	"lawgate/internal/legal"
)

func lawfulSeizedDeviceAction(name string) legal.Action {
	return legal.Action{
		Name:   name,
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingStored,
		Data:   legal.DataDeviceContents,
		Source: legal.SourceSeizedDevice,
	}
}

func warrantRequiredAction(name string) legal.Action {
	return legal.Action{
		Name:   name,
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingStored,
		Data:   legal.DataDeviceContents,
		Source: legal.SourceTargetDevice,
	}
}

func TestLockerAcquire(t *testing.T) {
	l := NewLocker(WithClock(testClock()))
	it, err := l.Acquire(AcquireRequest{
		Description: "disk image",
		Content:     []byte("image-bytes"),
		Custodian:   "agent-a",
		Action:      lawfulSeizedDeviceAction("image-drive"),
		Held:        legal.ProcessNone,
	})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if it.ID != "EV-0001" {
		t.Errorf("first item ID = %q, want EV-0001", it.ID)
	}
	if it.Size != len("image-bytes") {
		t.Errorf("Size = %d", it.Size)
	}
	if it.SHA256 == "" || len(it.SHA256) != 64 {
		t.Errorf("SHA256 = %q", it.SHA256)
	}
	if !it.LawfullyAcquired() {
		t.Error("examination within authority should be lawful")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1", l.Len())
	}
	if err := l.VerifyCustody(); err != nil {
		t.Errorf("VerifyCustody: %v", err)
	}
	entries := l.Custody()
	if len(entries) != 1 || entries[0].Event != EventAcquired {
		t.Errorf("custody = %+v", entries)
	}
}

func TestLockerAcquireDefaultsHeldToNone(t *testing.T) {
	l := NewLocker(WithClock(testClock()))
	it, err := l.Acquire(AcquireRequest{
		Description: "d",
		Action:      lawfulSeizedDeviceAction("a"),
	})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if it.Held != legal.ProcessNone {
		t.Errorf("Held = %v, want ProcessNone", it.Held)
	}
	if it.Cleansing != CleansingNone {
		t.Errorf("Cleansing = %v, want CleansingNone", it.Cleansing)
	}
}

func TestLockerAcquireRejectsBadInputs(t *testing.T) {
	l := NewLocker()
	if _, err := l.Acquire(AcquireRequest{
		Action: legal.Action{Name: "invalid"},
	}); err == nil {
		t.Error("invalid action must be rejected")
	}
	if _, err := l.Acquire(AcquireRequest{
		Action: lawfulSeizedDeviceAction("a"),
		Held:   legal.Process(42),
	}); err == nil {
		t.Error("invalid held process must be rejected")
	}
	if _, err := l.Acquire(AcquireRequest{
		Action:    lawfulSeizedDeviceAction("a"),
		Cleansing: Cleansing(42),
	}); err == nil {
		t.Error("invalid cleansing must be rejected")
	}
	if _, err := l.Acquire(AcquireRequest{
		Action:  lawfulSeizedDeviceAction("a"),
		Parents: []ID{"EV-9999"},
	}); !errors.Is(err, ErrUnknownParent) {
		t.Errorf("unknown parent error = %v, want ErrUnknownParent", err)
	}
}

func TestLockerItemLookup(t *testing.T) {
	l := NewLocker(WithClock(testClock()))
	it, err := l.Acquire(AcquireRequest{
		Description: "d",
		Action:      lawfulSeizedDeviceAction("a"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Item(it.ID)
	if err != nil {
		t.Fatalf("Item: %v", err)
	}
	if got.Description != "d" {
		t.Errorf("Description = %q", got.Description)
	}
	if _, err := l.Item("EV-nope"); !errors.Is(err, ErrUnknownItem) {
		t.Errorf("unknown lookup error = %v, want ErrUnknownItem", err)
	}
}

func TestLockerItemsAreCopies(t *testing.T) {
	l := NewLocker(WithClock(testClock()))
	it, err := l.Acquire(AcquireRequest{
		Description: "original",
		Action:      lawfulSeizedDeviceAction("a"),
	})
	if err != nil {
		t.Fatal(err)
	}
	it.Description = "mutated"
	got, _ := l.Item(it.ID)
	if got.Description != "original" {
		t.Error("Acquire must return a copy, not internal state")
	}
	items := l.Items()
	items[0].Description = "mutated-again"
	got, _ = l.Item(it.ID)
	if got.Description != "original" {
		t.Error("Items must return copies")
	}
}

func TestLockerRecord(t *testing.T) {
	l := NewLocker(WithClock(testClock()))
	it, err := l.Acquire(AcquireRequest{
		Description: "drive",
		Custodian:   "agent-a",
		Action:      lawfulSeizedDeviceAction("a"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Record(it.ID, "lab", EventImaged, "bit-for-bit copy"); err != nil {
		t.Fatalf("Record: %v", err)
	}
	if err := l.Record("EV-9999", "lab", EventImaged, ""); !errors.Is(err, ErrUnknownItem) {
		t.Errorf("Record unknown = %v, want ErrUnknownItem", err)
	}
	if err := l.VerifyCustody(); err != nil {
		t.Errorf("VerifyCustody: %v", err)
	}
	if got := len(l.Custody()); got != 2 {
		t.Errorf("custody length = %d, want 2", got)
	}
}

func TestLockerSequentialIDs(t *testing.T) {
	l := NewLocker(WithClock(testClock()))
	for i := 1; i <= 3; i++ {
		it, err := l.Acquire(AcquireRequest{
			Description: "x",
			Action:      lawfulSeizedDeviceAction("a"),
		})
		if err != nil {
			t.Fatal(err)
		}
		want := ID([]string{"EV-0001", "EV-0002", "EV-0003"}[i-1])
		if it.ID != want {
			t.Errorf("item %d ID = %q, want %q", i, it.ID, want)
		}
	}
}

func TestCleansingString(t *testing.T) {
	for c := CleansingNone; c <= CleansingAttenuation; c++ {
		if !c.Valid() {
			t.Errorf("cleansing %d should be valid", int(c))
		}
	}
	if Cleansing(9).Valid() {
		t.Error("Cleansing(9) should be invalid")
	}
	if CleansingIndependentSource.String() != "independent source" {
		t.Errorf("String = %q", CleansingIndependentSource.String())
	}
}

// TestZeroItemLawfullyAcquired: an item with a zero ruling has no
// verdict, so it required nothing.
func TestZeroItemLawfullyAcquired(t *testing.T) {
	var it Item
	if !it.LawfullyAcquired() {
		t.Error("an item with a zero ruling reports an unlawful acquisition")
	}
}
