#ifndef CARAC_STORAGE_SNAPSHOT_H_
#define CARAC_STORAGE_SNAPSHOT_H_

#include <cstdint>

// Durable snapshot format of a DatabaseSet (the implementation of
// DatabaseSet::SaveSnapshot / OpenSnapshot — see database.h for the API
// contract). The layout follows the KVell idea of keeping the on-disk
// representation flat and index-free: the columnar arena of each relation
// is written verbatim in one sequential stretch, and everything that is
// derivable in memory (the open-addressing dedup table, the column
// indexes) is rebuilt at open instead of being persisted.
//
// All integers are little-endian. Layout (version 4 — identical to
// version 3 except the index-kind byte, which is renumbered to the three
// kinds hash = 0, btree = 1, learned = 2; a version-3 byte 1 meant a
// kind that no longer exists, so version-3 snapshots are refused rather
// than decoded with the wrong organization):
//
//   [header]
//     magic          8 bytes  "CARACSNP"
//     version        u32
//     num_relations  u32
//     epoch          u64      DatabaseSet epoch counter
//     num_symbols    u64
//     checksum       u64      FNV-1a over the bytes above (magic included)
//   [symbols section]
//     per symbol: u32 length, raw bytes (interning order; symbol i maps
//     to id kSymbolBase + i, so serialized tuples stay valid verbatim)
//     checksum       u64      over the section's payload bytes
//   [relation section] x num_relations, in RelationId order
//     name           u32 length, raw bytes
//     arity          u32
//     num_rows       u32
//     watermark      u32      epoch watermark (<= num_rows)
//     index_count    u32      declared indexes on the Derived store
//     indexes        index_count * (column u32, kind u8) in declaration
//                    order — contents are still rebuilt at open, but the
//                    per-index ORGANIZATION is data (the optimizer or a
//                    DSL hint chose it), so a mixed-kind database
//                    round-trips byte-identically (v2 addition)
//     arena          num_rows * arity * 8 bytes, row-major, verbatim
//     edb_count      u32
//     edb_rows       edb_count * u32  RowIds inserted via InsertFact
//     checksum       u64      over the section's payload bytes
//   [footer]
//     magic          8 bytes  "CARACEND"  (guards against a truncated
//                             but otherwise well-formed prefix)
//
// Version policy: any layout change — field added, width changed,
// section reordered — bumps kSnapshotFormatVersion; OpenSnapshot rejects
// every version it was not built for (no silent best-effort decoding of
// a future or past layout). Old snapshots are regenerated, not migrated:
// a snapshot is a cache of recoverable state (program source + fact
// log), never the only copy.

namespace carac::storage {

inline constexpr uint32_t kSnapshotFormatVersion = 4;

}  // namespace carac::storage

#endif  // CARAC_STORAGE_SNAPSHOT_H_
