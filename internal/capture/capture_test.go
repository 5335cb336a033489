package capture

import (
	"errors"
	"testing"
	"time"

	"lawgate/internal/legal"
	"lawgate/internal/netsim"
)

func ispNet(t *testing.T) *netsim.Network {
	t.Helper()
	sim := netsim.NewSimulator(1)
	n := netsim.NewNetwork(sim)
	for _, id := range []netsim.NodeID{"suspect", "isp", "server"} {
		if err := n.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Connect("suspect", "isp", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("isp", "server", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return n
}

func govISPPlacement() Placement {
	return Placement{
		Node:   "isp",
		Actor:  legal.ActorGovernment,
		Source: legal.SourceThirdPartyNetwork,
	}
}

func send(t *testing.T, n *netsim.Network, src, dst netsim.NodeID, payload string) {
	t.Helper()
	err := n.Send(&netsim.Packet{
		Header:  netsim.Header{Src: src, Dst: dst, Flow: "f", Proto: netsim.ProtoTCP},
		Payload: []byte(payload),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeviceKindDataClass(t *testing.T) {
	for k := PenRegister; k <= FullWiretap; k++ {
		want := legal.DataAddressing
		if k == FullWiretap {
			want = legal.DataContent
		}
		if got := k.DataClass(); got != want {
			t.Errorf("%v.DataClass() = %v, want %v", k, got, want)
		}
		if !k.Valid() {
			t.Errorf("kind %v should be valid", k)
		}
	}
	if DeviceKind(0).Valid() {
		t.Error("DeviceKind(0) should be invalid")
	}
	if DeviceKind(99).String() != "DeviceKind(99)" {
		t.Errorf("placeholder = %q", DeviceKind(99).String())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DeviceKind(0), govISPPlacement(), legal.ProcessCourtOrder); err == nil {
		t.Error("invalid kind must be rejected")
	}
	if _, err := New(PenRegister, govISPPlacement(), legal.Process(99)); err == nil {
		t.Error("invalid process must be rejected")
	}
}

func TestPenRegisterRequiresCourtOrder(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(true)

	// Without process: refused.
	d, err := New(PenRegister, govISPPlacement(), legal.ProcessNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unauthorized pen register: err = %v, want ErrUnauthorized", err)
	}

	// With a court order: armed.
	d, err = New(PenRegister, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); err != nil {
		t.Fatalf("authorized pen register: %v", err)
	}
	if !d.Lawful() {
		t.Error("device with sufficient process must be lawful")
	}
}

func TestFullWiretapRequiresWiretapOrder(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(true)
	d, err := New(FullWiretap, govISPPlacement(), legal.ProcessSearchWarrant)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("warrant is not enough for Title III: err = %v", err)
	}
	d, err = New(FullWiretap, govISPPlacement(), legal.ProcessWiretapOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); err != nil {
		t.Fatalf("wiretap order must arm a full wiretap: %v", err)
	}
}

func TestRateMeterNeedsOnlyPenTrapProcess(t *testing.T) {
	// The Section IV-B point: rate collection is non-content, so a court
	// order suffices where a wiretap order would be needed for payloads.
	n := ispNet(t)
	gate := NewGate(true)
	d, err := New(RateMeter, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); err != nil {
		t.Fatalf("court order must arm a rate meter: %v", err)
	}
	if d.Ruling().Required >= legal.ProcessSearchWarrant {
		t.Errorf("rate meter required %v; must stay below warrant tier", d.Ruling().Required)
	}
}

func TestProviderDeviceOnOwnNetworkNeedsNothing(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(true)
	d, err := New(HeaderSniffer, Placement{
		Node:   "isp",
		Actor:  legal.ActorProvider,
		Source: legal.SourceOwnNetwork,
	}, legal.ProcessNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); err != nil {
		t.Fatalf("provider self-monitoring must arm freely: %v", err)
	}
}

func TestPenRegisterDirectionFilter(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(true)
	pen, err := New(PenRegister, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	trap, err := New(TrapTrace, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, pen); err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, trap); err != nil {
		t.Fatal(err)
	}
	// One packet arriving at isp (inbound) and one relayed out
	// (outbound).
	send(t, n, "suspect", "isp", "in")
	send(t, n, "isp", "server", "out")
	n.Sim().Run()

	penRecs, trapRecs := pen.Records(), trap.Records()
	if len(penRecs) != 1 || penRecs[0].Dir != netsim.DirOutbound {
		t.Errorf("pen register records = %+v, want 1 outbound", penRecs)
	}
	if len(trapRecs) != 1 || trapRecs[0].Dir != netsim.DirInbound {
		t.Errorf("trap/trace records = %+v, want 1 inbound", trapRecs)
	}
}

func TestAddressingDevicesOmitPayload(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(true)
	sniffer, err := New(HeaderSniffer, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	wiretap, err := New(FullWiretap, govISPPlacement(), legal.ProcessWiretapOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, sniffer); err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, wiretap); err != nil {
		t.Fatal(err)
	}
	send(t, n, "suspect", "isp", "secret-contents")
	n.Sim().Run()

	if recs := sniffer.Records(); len(recs) != 1 || recs[0].Payload != nil {
		t.Errorf("header sniffer must not retain payload: %+v", recs)
	}
	recs := wiretap.Records()
	if len(recs) != 1 || string(recs[0].Payload) != "secret-contents" {
		t.Errorf("full wiretap must retain payload: %+v", recs)
	}
	if recs[0].Header.Src != "suspect" {
		t.Errorf("header src = %v", recs[0].Header.Src)
	}
}

func TestPermissiveGateArmsButMarksUnlawful(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(false)
	d, err := New(FullWiretap, govISPPlacement(), legal.ProcessNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); err != nil {
		t.Fatalf("permissive gate must arm: %v", err)
	}
	if d.Lawful() {
		t.Error("unauthorized device must be marked unlawful")
	}
	send(t, n, "suspect", "isp", "x")
	n.Sim().Run()
	if len(d.Records()) != 1 {
		t.Error("permissive device must still capture")
	}
}

func TestArmTwiceFails(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(true)
	d, err := New(HeaderSniffer, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); !errors.Is(err, ErrAlreadyArmed) {
		t.Errorf("double arm err = %v, want ErrAlreadyArmed", err)
	}
}

func TestCounts(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(true)
	d, err := New(RateMeter, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); err != nil {
		t.Fatal(err)
	}
	// 3 packets in bin 0 (t<10ms), 1 packet in bin 2 (t in [20,30)).
	for i := 0; i < 3; i++ {
		send(t, n, "suspect", "isp", "x") // arrive at 1ms
	}
	if err := n.Sim().Schedule(24*time.Millisecond, func() {
		_ = n.Send(&netsim.Packet{Header: netsim.Header{Src: "suspect", Dst: "isp", Flow: "f"}})
	}); err != nil {
		t.Fatal(err)
	}
	n.Sim().Run()
	counts := d.Counts(10*time.Millisecond, 40*time.Millisecond)
	if len(counts) != 4 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[0] != 3 || counts[1] != 0 || counts[2] != 1 || counts[3] != 0 {
		t.Errorf("counts = %v, want [3 0 1 0]", counts)
	}
	if got := d.Counts(0, time.Second); got != nil {
		t.Errorf("Counts with zero bin = %v, want nil", got)
	}
}

func TestRecordsAreCopies(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(true)
	d, err := New(FullWiretap, govISPPlacement(), legal.ProcessWiretapOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, d); err != nil {
		t.Fatal(err)
	}
	send(t, n, "suspect", "isp", "abc")
	n.Sim().Run()
	recs := d.Records()
	recs[0].Payload[0] = 'X'
	if string(d.Records()[0].Payload) != "abc" {
		t.Error("Records must not expose internal payload slices")
	}
}

func TestDeviceExpiry(t *testing.T) {
	n := ispNet(t)
	gate := NewGate(true)
	d, err := New(HeaderSniffer, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	d.SetExpiry(10 * time.Millisecond)
	if err := gate.Arm(n, d); err != nil {
		t.Fatal(err)
	}
	send(t, n, "suspect", "isp", "early") // arrives at 1ms
	if err := n.Sim().Schedule(20*time.Millisecond, func() {
		_ = n.Send(&netsim.Packet{Header: netsim.Header{Src: "suspect", Dst: "isp", Flow: "f"}})
	}); err != nil {
		t.Fatal(err)
	}
	n.Sim().Run()
	if got := len(d.Records()); got != 1 {
		t.Errorf("records = %d, want 1 (post-expiry dropped)", got)
	}
	if d.Expired != 1 {
		t.Errorf("Expired = %d, want 1", d.Expired)
	}
}

func TestWirelessSnifferScenes(t *testing.T) {
	// Table 1 scenes 3-6 through the capture layer: headers off the air
	// arm freely; payload capture off the air needs a wiretap order.
	sim := netsim.NewSimulator(9)
	n := netsim.NewNetwork(sim)
	for _, id := range []netsim.NodeID{"house-ap", "laptop"} {
		if err := n.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Connect("house-ap", "laptop", netsim.Link{}); err != nil {
		t.Fatal(err)
	}
	gate := NewGate(true)
	wardriving := Placement{
		Node:   "house-ap",
		Actor:  legal.ActorGovernment,
		Source: legal.SourceWirelessBroadcast,
	}
	headers, err := New(HeaderSniffer, wardriving, legal.ProcessNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, headers); err != nil {
		t.Errorf("wireless header sniffing must arm without process (scenes 3, 5): %v", err)
	}
	payload, err := New(FullWiretap, wardriving, legal.ProcessNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, payload); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("wireless payload capture without process must be refused (scenes 4, 6): %v", err)
	}
	payload2, err := New(FullWiretap, wardriving, legal.ProcessWiretapOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Arm(n, payload2); err != nil {
		t.Errorf("wireless payload capture with a wiretap order must arm: %v", err)
	}
}

func TestAcquiredSummarizesEvidence(t *testing.T) {
	n := ispNet(t)
	d, err := New(HeaderSniffer, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewGate(true).Arm(n, d); err != nil {
		t.Fatal(err)
	}
	if a := d.Acquired(); a.Records != 0 || a.Bytes != 0 {
		t.Errorf("fresh device acquired %+v", a)
	}
	send(t, n, "suspect", "isp", "hello")
	send(t, n, "isp", "server", "world!!")
	n.Sim().Run()
	a := d.Acquired()
	wantBytes := int64((len("hello") + 40) + (len("world!!") + 40))
	if a.Records != 2 || a.Bytes != wantBytes {
		t.Errorf("acquired %+v, want 2 records / %d bytes", a, wantBytes)
	}
	if got := a.String(); got != "2 records (92 bytes)" {
		t.Errorf("String() = %q", got)
	}
}

func TestAcquiredCountsExpiry(t *testing.T) {
	n := ispNet(t)
	d, err := New(HeaderSniffer, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	d.SetExpiry(time.Nanosecond)
	if err := NewGate(true).Arm(n, d); err != nil {
		t.Fatal(err)
	}
	send(t, n, "suspect", "isp", "late")
	n.Sim().Run()
	a := d.Acquired()
	if a.Records != 0 || a.Expired != 1 {
		t.Errorf("expired capture acquired %+v", a)
	}
	if got := a.String(); got != "0 records (0 bytes), 1 dropped after expiry" {
		t.Errorf("String() = %q", got)
	}
}

// TestUnarmedDeviceLawful: before Arm a device has no ruling, so it
// requires nothing and any held process satisfies it.
func TestUnarmedDeviceLawful(t *testing.T) {
	d, err := New(FullWiretap, govISPPlacement(), legal.ProcessNone)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Lawful() {
		t.Error("an unarmed device reports itself unlawful")
	}
	if d.Ruling().NeedsProcess() {
		t.Error("an unarmed device's zero ruling needs process")
	}
}
