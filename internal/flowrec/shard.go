package flowrec

// Shard-key derivation: a stable split of a day's records into K
// groups by a hash of the anonymized client address, so every record
// of a subscription lands in the same group. The merge-monoid property
// tests and the benchmark's merge measurement fold each group into its
// own partial and merge the partials back into exactly the one-fold
// result. The hash must be seed-free and stable across runs, machines
// and worker counts, so a split is reproducible.

// ShardKey returns the record's stable shard-assignment hash, derived
// from the anonymized client address only. Records of one subscriber
// always share a key; the key is uniform over subscribers and
// independent of everything the aggregates measure.
func (r *Record) ShardKey() uint64 {
	cli := uint64(r.Client[0])<<24 | uint64(r.Client[1])<<16 |
		uint64(r.Client[2])<<8 | uint64(r.Client[3])
	// splitmix64-style finalizer: full avalanche from the 32 address
	// bits so taking the key modulo small K stays balanced.
	h := cli + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// Shard maps the record onto one of k shards. k must be >= 1.
func (r *Record) Shard(k int) int {
	if k <= 1 {
		return 0
	}
	return int(r.ShardKey() % uint64(k))
}
