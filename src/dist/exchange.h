// Bit-exact codecs for the values the distributed Phase-2 protocol
// (dist/coordinator.h, dist/worker.h) moves. The transport is not here:
// messages are server/json objects ("t"-tagged) sent over server/net's
// FrameChannel, the one framed-JSON socket layer tpcpd uses too, and the
// init frame's options are core/config's string map (OptionsToMap).
//
// Two encoding rules keep the distributed run bit-identical to a
// single-process one:
//
//  - Matrices travel as base64 of their raw little-endian double bytes.
//    JSON number round-trips are not bit-faithful for doubles; raw bytes
//    are.
//  - Scalar doubles that must compare bitwise (surrogate fits) travel as
//    their IEEE-754 bit pattern in an int64 (JSON integers round-trip
//    exactly).
//
// Large payloads (sub-factors, long slab-M lists) are chunked by the
// callers so every frame stays under server/wire's 1 MiB ceiling.

#ifndef TPCP_DIST_EXCHANGE_H_
#define TPCP_DIST_EXCHANGE_H_

#include <cstdint>
#include <string>

#include "grid/grid_partition.h"
#include "linalg/matrix.h"
#include "server/json.h"

namespace tpcp {

/// Matrix payload bytes per frame chunk. Well under kMaxFrameBytes even
/// after base64 (4/3) and JSON framing overhead.
constexpr uint64_t kDistChunkBytes = 256u * 1024u;

/// Bit-faithful double <-> int64 (IEEE-754 bit pattern).
int64_t DoubleBits(double value);
double BitsToDouble(int64_t bits);

/// Whole matrix as {"r","c","d"} with d = base64(raw LE doubles).
JsonValue EncodeMatrix(const Matrix& m);
Result<Matrix> DecodeMatrix(const JsonValue& v);

/// Row slice [row0, row0+row_count) of `m` as {"r","c","r0","rc","d"} —
/// the chunked form for matrices larger than one frame.
JsonValue EncodeMatrixRows(const Matrix& m, int64_t row0, int64_t row_count);
/// Installs a row-slice chunk into `*out` (resized to r x c on first use).
Status DecodeMatrixRowsInto(const JsonValue& v, Matrix* out);

/// Grid geometry as {"dims","parts"}.
JsonValue EncodeGrid(const GridPartition& grid);
Result<GridPartition> DecodeGrid(const JsonValue& v);

}  // namespace tpcp

#endif  // TPCP_DIST_EXCHANGE_H_
