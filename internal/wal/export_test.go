package wal

// Test hooks: exported only to this package's tests, because no non-test
// code calls them.

// Append writes one record and, under SyncAlways, makes it durable before
// returning. The returned sequence number identifies the record in replay.
func (l *Log) Append(kind byte, data []byte) (uint64, error) {
	seq, _, err := l.AppendSynced(kind, data)
	return seq, err
}
