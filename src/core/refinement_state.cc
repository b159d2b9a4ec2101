#include "core/refinement_state.h"

#include <cmath>

#include "cp/cp_als.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/elementwise.h"

namespace tpcp {

Result<std::map<ModePartition, Matrix>> SeedSubFactors(
    BlockFactorStore* store) {
  const GridPartition& grid = store->grid();
  std::map<ModePartition, Matrix> seeds;
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      const std::vector<BlockIndex> slab = store->SlabBlocks(mode, part);
      TPCP_CHECK(!slab.empty());
      TPCP_ASSIGN_OR_RETURN(Matrix seed,
                            store->ReadBlockFactor(slab.front(), mode));
      TPCP_RETURN_IF_ERROR(store->WriteSubFactor(mode, part, seed));
      seeds.emplace(ModePartition{mode, part}, std::move(seed));
    }
  }
  return seeds;
}

RefinementState::RefinementState(BlockFactorStore* store, double ridge,
                                 ThreadPool* compute_pool)
    : store_(store), grid_(store->grid()), rank_(store->rank()),
      ridge_(ridge), compute_pool_(compute_pool) {
  for (int mode = 0; mode < grid_.num_modes(); ++mode) {
    for (int64_t part = 0; part < grid_.parts(mode); ++part) {
      slabs_[ModePartition{mode, part}] = store_->SlabBlocks(mode, part);
    }
  }
  m_.assign(static_cast<size_t>(grid_.NumBlocks()),
            std::vector<Matrix>(static_cast<size_t>(grid_.num_modes())));
  block_norm_sq_.assign(static_cast<size_t>(grid_.NumBlocks()), 0.0);
}

const Matrix& RefinementState::GramOf(int mode, int64_t part) const {
  auto it = g_.find(ModePartition{mode, part});
  TPCP_CHECK(it != g_.end());
  return it->second;
}

Status RefinementState::Initialize(bool resume) {
  const int n = grid_.num_modes();

  // Pass 1: seed A^(i)_(ki) — from the first block of each slab (fresh
  // start, persisted) or from the sub-factors already in the store
  // (resume) — and hold transiently for the metadata pass (A totals
  // Σ_i I_i·F doubles — small next to the U data).
  std::map<ModePartition, Matrix> a_init;
  if (resume) {
    for (const auto& [unit, slab] : slabs_) {
      TPCP_ASSIGN_OR_RETURN(a_init[unit],
                            store_->ReadSubFactor(unit.mode, unit.part));
    }
  } else {
    TPCP_ASSIGN_OR_RETURN(a_init, SeedSubFactors(store_));
  }
  for (const auto& [unit, a] : a_init) g_[unit] = Gram(a);

  // Pass 2: per block, compute M^(h)_l and the surrogate norm n_l. Blocks
  // are independent (each writes only its own m_ row and norm slot and
  // reads the now-frozen a_init), so the pass shards across the compute
  // pool; per-block results don't depend on the sharding, keeping the
  // metadata bit-identical to a serial pass. Statuses collect per block
  // and the first failure (in block order) is reported, like the serial
  // loop would.
  const std::vector<BlockIndex> blocks = grid_.AllBlocks();
  std::vector<Status> block_status(blocks.size());
  ParallelFor(
      compute_pool_, 0, static_cast<int64_t>(blocks.size()),
      [&](int64_t b) {
        const BlockIndex& block = blocks[static_cast<size_t>(b)];
        const int64_t flat = grid_.FlattenBlock(block);
        Matrix norm_acc(rank_, rank_, 1.0);
        for (int h = 0; h < n; ++h) {
          auto u = store_->ReadBlockFactor(block, h);
          if (!u.ok()) {
            block_status[static_cast<size_t>(b)] = u.status();
            return;
          }
          const ModePartition unit{h, block[static_cast<size_t>(h)]};
          m_[static_cast<size_t>(flat)][static_cast<size_t>(h)] =
              MatTMul(*u, a_init.at(unit));
          HadamardInPlace(&norm_acc, Gram(*u));
        }
        double norm_sq = 0.0;
        for (int64_t i = 0; i < norm_acc.size(); ++i) {
          norm_sq += norm_acc.data()[i];
        }
        block_norm_sq_[static_cast<size_t>(flat)] =
            norm_sq > 0.0 ? norm_sq : 0.0;
      });
  for (const Status& status : block_status) {
    TPCP_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Status RefinementState::LoadUnit(const ModePartition& unit) {
  // All reads happen into a local before the map is touched, so concurrent
  // loads of distinct units only contend on the brief insert.
  UnitData data;
  TPCP_ASSIGN_OR_RETURN(data.a,
                        store_->ReadSubFactor(unit.mode, unit.part));
  const std::vector<BlockIndex>& slab = slabs_.at(unit);
  data.u.reserve(slab.size());
  for (const BlockIndex& block : slab) {
    TPCP_ASSIGN_OR_RETURN(Matrix u, store_->ReadBlockFactor(block, unit.mode));
    data.u.push_back(std::move(u));
  }
  std::lock_guard<std::mutex> lock(resident_mu_);
  const bool inserted = resident_.emplace(unit, std::move(data)).second;
  TPCP_CHECK(inserted) << "LoadUnit on already-resident unit";
  return Status::OK();
}

Status RefinementState::EvictUnit(const ModePartition& unit, bool dirty) {
  // Write back first and drop the unit after the write lands: until then
  // the store holds the old A, and CurrentSubFactor must keep finding the
  // resident copy. The write runs outside the lock so a slow writeback
  // does not block loads of other units; nothing mutates an evicting
  // unit's payload (the pool no longer pins it) and map nodes are stable.
  const UnitData* data;
  {
    std::lock_guard<std::mutex> lock(resident_mu_);
    auto it = resident_.find(unit);
    TPCP_CHECK(it != resident_.end());
    data = &it->second;
  }
  Status status = Status::OK();
  if (dirty || data->dirty) {
    status = store_->WriteSubFactor(unit.mode, unit.part, data->a);
  }
  std::lock_guard<std::mutex> lock(resident_mu_);
  resident_.erase(unit);
  return status;
}

void RefinementState::ApplyUpdate(const UpdateStep& step) {
  const ModePartition unit = step.unit();
  UnitData* data_ptr;
  {
    std::lock_guard<std::mutex> lock(resident_mu_);
    auto it = resident_.find(unit);
    TPCP_CHECK(it != resident_.end()) << "update on non-resident unit";
    // Map references are stable across inserts/erases of other keys, and
    // the pool's pin keeps this unit out of concurrent evictions.
    data_ptr = &it->second;
  }
  UnitData& data = *data_ptr;
  const int n = grid_.num_modes();
  const int i = unit.mode;
  const std::vector<BlockIndex>& slab = slabs_.at(unit);

  // T = Σ U_l W and S = Σ SW over the slab, in slab order. Reads only
  // frozen metadata (m_/g_ of modes != i) and this unit's U blocks.
  Matrix t(data.a.rows(), rank_);
  Matrix s(rank_, rank_);
  Matrix w(rank_, rank_);
  Matrix sw(rank_, rank_);
  for (size_t j = 0; j < slab.size(); ++j) {
    const BlockIndex& block = slab[j];
    const int64_t flat = grid_.FlattenBlock(block);
    // W = ⊛_{h≠i} M^(h)_l ; SW = ⊛_{h≠i} G^(h)_(l_h).
    w.Fill(1.0);
    sw.Fill(1.0);
    for (int h = 0; h < n; ++h) {
      if (h == i) continue;
      HadamardInPlace(&w,
                      m_[static_cast<size_t>(flat)][static_cast<size_t>(h)]);
      HadamardInPlace(&sw, GramOf(h, block[static_cast<size_t>(h)]));
    }
    // T += U_l W
    Gemm(Trans::kNo, data.u[j], Trans::kNo, w, 1.0, 1.0, &t);
    s.Add(sw);
  }

  ApplyRidge(&s, ridge_);
  Matrix a_new;
  SolveGramSystem(t, s, &a_new);
  data.a = std::move(a_new);
  data.dirty = true;

  // In-place metadata refresh (the paper's P/Q revision step). Assign
  // through the existing g_ node (every key exists after Initialize): the
  // map structure stays fixed, so concurrent batch mates reading other
  // nodes — they never read mode-i metadata — race with nothing.
  auto g_it = g_.find(unit);
  TPCP_CHECK(g_it != g_.end());
  g_it->second = Gram(data.a);
  for (size_t j = 0; j < slab.size(); ++j) {
    const int64_t flat = grid_.FlattenBlock(slab[j]);
    m_[static_cast<size_t>(flat)][static_cast<size_t>(i)] =
        MatTMul(data.u[j], data.a);
  }
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
}

double RefinementState::SurrogateFit() const {
  const int n = grid_.num_modes();
  // Map: per-block partial sums, sharded across the compute pool (each
  // block touches only frozen metadata and its own output slot).
  const std::vector<BlockIndex> blocks = grid_.AllBlocks();
  std::vector<double> sum_p(blocks.size());
  std::vector<double> sum_q(blocks.size());
  ParallelFor(
      compute_pool_, 0, static_cast<int64_t>(blocks.size()),
      [&](int64_t b) {
        const BlockIndex& block = blocks[static_cast<size_t>(b)];
        const int64_t flat = grid_.FlattenBlock(block);
        Matrix p(rank_, rank_, 1.0);
        Matrix q(rank_, rank_, 1.0);
        for (int h = 0; h < n; ++h) {
          HadamardInPlace(
              &p, m_[static_cast<size_t>(flat)][static_cast<size_t>(h)]);
          HadamardInPlace(&q, GramOf(h, block[static_cast<size_t>(h)]));
        }
        double sp = 0.0;
        double sq = 0.0;
        for (int64_t e = 0; e < p.size(); ++e) sp += p.data()[e];
        for (int64_t e = 0; e < q.size(); ++e) sq += q.data()[e];
        sum_p[static_cast<size_t>(b)] = sp;
        sum_q[static_cast<size_t>(b)] = sq;
      });
  // Reduce: in block order on this thread — the same accumulation order
  // as the serial pass, so the fit is bit-identical at any thread count.
  double total_norm_sq = 0.0;
  double residual_sq = 0.0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const int64_t flat = grid_.FlattenBlock(blocks[b]);
    const double n_l = block_norm_sq_[static_cast<size_t>(flat)];
    total_norm_sq += n_l;
    residual_sq += n_l - 2.0 * sum_p[b] + sum_q[b];
  }
  if (total_norm_sq <= 0.0) return 1.0;
  residual_sq = residual_sq > 0.0 ? residual_sq : 0.0;
  return 1.0 - std::sqrt(residual_sq) / std::sqrt(total_norm_sq);
}

RefinementState::ExchangeImage RefinementState::ExportExchange(
    const ModePartition& unit) const {
  ExchangeImage image;
  auto g_it = g_.find(unit);
  TPCP_CHECK(g_it != g_.end());
  image.gram = g_it->second;
  auto slab_it = slabs_.find(unit);
  TPCP_CHECK(slab_it != slabs_.end());
  image.slab_m.reserve(slab_it->second.size());
  for (const BlockIndex& block : slab_it->second) {
    const int64_t flat = grid_.FlattenBlock(block);
    image.slab_m.emplace_back(
        flat,
        m_[static_cast<size_t>(flat)][static_cast<size_t>(unit.mode)]);
  }
  return image;
}

Status RefinementState::AbsorbExchange(const ModePartition& unit,
                                       const ExchangeImage& image) {
  auto g_it = g_.find(unit);
  if (g_it == g_.end()) {
    return Status::InvalidArgument("absorb: unknown unit");
  }
  if (image.gram.rows() != rank_ || image.gram.cols() != rank_) {
    return Status::InvalidArgument("absorb: bad gram shape");
  }
  auto slab_it = slabs_.find(unit);
  if (image.slab_m.size() != slab_it->second.size()) {
    return Status::InvalidArgument("absorb: bad slab length");
  }
  g_it->second = image.gram;
  for (const auto& [flat, m] : image.slab_m) {
    if (flat < 0 || flat >= grid_.NumBlocks() || m.rows() != rank_ ||
        m.cols() != rank_) {
      return Status::InvalidArgument("absorb: bad slab entry");
    }
    m_[static_cast<size_t>(flat)][static_cast<size_t>(unit.mode)] = m;
  }
  return Status::OK();
}

Result<Matrix> RefinementState::CurrentSubFactor(
    const ModePartition& unit) const {
  {
    std::lock_guard<std::mutex> lock(resident_mu_);
    auto it = resident_.find(unit);
    if (it != resident_.end()) return it->second.a;
  }
  return store_->ReadSubFactor(unit.mode, unit.part);
}

}  // namespace tpcp
