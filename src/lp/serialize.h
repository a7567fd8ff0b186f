// Snapshot serialization for LP objects (DESIGN.md §14).
//
// DynamicRR's checkpoint embeds its warm-start basis so a resumed run
// re-enters the solver from the basis an uninterrupted run would have
// carried: vertex selection under degeneracy depends on the starting
// basis, so dropping it would still be *correct* but not bit-identical.
// The slot LP itself is rebuilt from scratch every slot and is never
// serialized.
#pragma once

namespace mecar::util {
class SnapshotWriter;
class SnapshotReader;
}  // namespace mecar::util

namespace mecar::lp {

struct WarmStartBasis;

/// Serializes a warm-start basis (possibly empty).
void save_basis(const WarmStartBasis& basis, util::SnapshotWriter& w);
WarmStartBasis load_basis(util::SnapshotReader& r);

}  // namespace mecar::lp
