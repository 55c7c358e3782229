package checkpoint

// Class is the checkpoint classification of one field of a snapshotted
// struct. The state inventory itself lives in the source: the shrimpvet
// snapshotcover analyzer treats each field referenced on both sides of
// its package's snapshot.go Snapshot/Restore pair as captured, and
// every other field must carry a //shrimp:nostate <class>: <why>
// annotation using these tokens. The analyzer fails the build on any
// unclassified field, and this package's TestStaticCoverageMatches pins
// the set of snapshotted types.
//
// Classes:
//   - captured: copied by a Snapshot() and written back by Restore().
//   - asserted: must be empty/idle at quiescence; Quiescent() checks it
//     (or it is transient engine state that quiescence implies is dead).
//   - wiring: identical across branches by construction — pointers,
//     closures, freelists, immutable config — never touched by rewind.
type Class string

const (
	Captured Class = "captured"
	Asserted Class = "asserted"
	Wiring   Class = "wiring"
)

// Classes enumerates the classification vocabulary of the
// //shrimp:nostate annotations.
func Classes() []Class { return []Class{Captured, Asserted, Wiring} }

// ParseClass maps an annotation token to its Class.
func ParseClass(s string) (Class, bool) {
	switch c := Class(s); c {
	case Captured, Asserted, Wiring:
		return c, true
	}
	return "", false
}
