package stream

import (
	"reflect"
	"testing"
)

// TestDiffGroupsKinds pins the delta kinds diffGroups emits for each way a
// grouping can change — not only the state Apply rebuilds from them, which a
// MemberJoined on a missing group would reproduce just as well as a
// GroupCreated.
func TestDiffGroupsKinds(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, new map[int64][]int64
		want     []Delta
	}{
		{"created", map[int64][]int64{}, map[int64][]int64{1: {1, 2}},
			[]Delta{{Kind: GroupCreated, Group: 1, Members: []int64{1, 2}}}},
		{"grew in place", map[int64][]int64{1: {1}, 5: {5}}, map[int64][]int64{1: {1, 2}, 5: {5}},
			[]Delta{{Kind: MemberJoined, Group: 1, Members: []int64{2}}}},
		{"created beside a group that grew", map[int64][]int64{1: {1}}, map[int64][]int64{1: {1, 2}, 3: {3}},
			[]Delta{{Kind: MemberJoined, Group: 1, Members: []int64{2}}, {Kind: GroupCreated, Group: 3, Members: []int64{3}}}},
		{"merged", map[int64][]int64{1: {1}, 3: {3}}, map[int64][]int64{1: {1, 3, 4}},
			[]Delta{{Kind: GroupsMerged, Group: 1, Merged: []int64{3}}, {Kind: MemberJoined, Group: 1, Members: []int64{4}}}},
		{"split", map[int64][]int64{1: {1, 2}}, map[int64][]int64{1: {1}, 2: {2}},
			[]Delta{{Kind: GroupDissolved, Group: 1}, {Kind: GroupCreated, Group: 1, Members: []int64{1}}, {Kind: GroupCreated, Group: 2, Members: []int64{2}}}},
	} {
		if got := diffGroups(c.old, c.new); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: diffGroups = %+v, want %+v", c.name, got, c.want)
		}
	}
}
