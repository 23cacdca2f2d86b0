package msg

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/types"
)

// FuzzDecodeOwned asserts that DecodeOwned is Decode without the copies:
// for any input both accept or both refuse it, with equal errors, and an
// accepted input decodes to equal messages. DecodeOwned must not write to
// its input either.
func FuzzDecodeOwned(f *testing.F) {
	s := testScheme()
	x := types.Value("value")
	cc := sampleCommitCert(s, x, 2)
	vote := VoteRecord{Value: x, View: 2, Cert: sampleProgressCert(s, x, 2), Tau: s.Signer(2).Sign(ProposeDigest(x, 2)), CC: cc}
	sv := SignedVote{Voter: 1, Vote: vote, Phi: s.Signer(1).Sign(VoteDigest(vote, 3))}
	for _, m := range []Message{
		&Propose{View: 3, X: x, Cert: sampleProgressCert(s, x, 3), Tau: s.Signer(3).Sign(ProposeDigest(x, 3))},
		&Ack{View: 2, X: x},
		&Ack{View: 1, X: types.Value{}},
		&AckSig{View: 2, X: x, Phi: s.Signer(0).Sign(AckDigest(x, 2))},
		&Vote{View: 3, SV: sv},
		&CertRequest{View: 3, X: x, Votes: []SignedVote{sv}},
		&Commit{View: 2, X: x, CC: *cc},
		&Raw{View: 4, Proto: ProtoPBFT, Sub: 2, X: x, Payload: []byte{1, 2, 3}},
		&StateSnapshot{Total: 3, Data: []byte("abc"), Tail: []TailDecision{{Slot: 4, Value: x}}},
		&Request{Client: "alice", Seq: 1, Op: []byte("op"), Group: 2},
		&Reply{Client: "alice", Seq: 9, Slot: 4, Replica: 2, Result: []byte("r")},
	} {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindAck), 1, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]byte(nil), data...)
		want, werr := Decode(data)
		got, gerr := DecodeOwned(in)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Fatalf("Decode error %v, DecodeOwned error %v", werr, gerr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Decode gave %#v, DecodeOwned %#v", want, got)
		}
		if !bytes.Equal(in, data) {
			t.Fatal("DecodeOwned wrote to its input")
		}
	})
}
