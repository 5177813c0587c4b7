#include "semlock/mode_table.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "util/env.h"
#include "util/striped_counter.h"

#if defined(SEMLOCK_OBS)
#include "obs/trace.h"
#endif

namespace semlock {

bool optimistic_from_env_text(const char* text) {
  if (text == nullptr) return true;
  const auto parsed = util::env_int_in_range(
      "SEMLOCK_OPTIMISTIC", text, 0, 1, "optimistic acquisition on");
  return parsed ? *parsed != 0 : true;
}

StripeEnvChoice stripes_from_env_text(const char* text) {
  // Auto: one stripe per hardware thread (rounded up to a power of two) so
  // fully-parallel commuting holders get disjoint lines without
  // over-allocating on small machines. hardware_concurrency may return 0.
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const int auto_stripes =
      static_cast<int>(util::StripedCounterBank::round_up_pow2(hw));
  if (text == nullptr) return {true, auto_stripes};
  const auto parsed = util::env_int_in_range(
      "SEMLOCK_STRIPES", text, 0,
      static_cast<long long>(util::StripedCounterBank::kMaxStripes),
      "automatic stripe count");
  if (!parsed) return {true, auto_stripes};
  if (*parsed == 0) return {false, auto_stripes};
  return {true, static_cast<int>(*parsed)};
}

StorageKind storage_from_env_text(const char* text) {
  if (text == nullptr) return StorageKind::Flat;
  if (const auto parsed = parse_storage_kind(text)) return *parsed;
  util::warn_invalid_env("SEMLOCK_STORAGE", text, "flat");
  return StorageKind::Flat;
}

bool elision_from_env_text(const char* text) {
  if (text == nullptr) return false;
  const auto parsed =
      util::env_bool_01("SEMLOCK_ELISION", text, "elision off");
  return parsed ? *parsed : false;
}

namespace {

// Read each variable once per process: the knobs gate code paths chosen at
// ModeTable construction, so mid-run environment edits must not make two
// tables of the same spec disagree.
bool env_optimistic_acquire() {
  static const bool value =
      optimistic_from_env_text(std::getenv("SEMLOCK_OPTIMISTIC"));
  return value;
}

StripeEnvChoice env_stripe_choice() {
  static const StripeEnvChoice value =
      stripes_from_env_text(std::getenv("SEMLOCK_STRIPES"));
  return value;
}

StorageKind env_storage() {
  static const StorageKind value =
      storage_from_env_text(std::getenv("SEMLOCK_STORAGE"));
  return value;
}

bool env_elide_locks() {
  static const bool value =
      elision_from_env_text(std::getenv("SEMLOCK_ELISION"));
  return value;
}

}  // namespace

bool default_optimistic_acquire() { return env_optimistic_acquire(); }
bool default_stripe_self_commuting() { return env_stripe_choice().enabled; }
int default_counter_stripes() { return env_stripe_choice().stripes; }
StorageKind default_storage() { return env_storage(); }
bool default_elide_locks() { return env_elide_locks(); }

bool default_trace_events() {
#if defined(SEMLOCK_OBS)
  return obs::runtime_enabled();
#else
  return false;
#endif
}

namespace {

using commute::AdtSpec;
using commute::SymArg;
using commute::SymbolicSet;
using commute::SymOp;
using commute::Value;
using commute::ValueAbstraction;

void validate_sets(const AdtSpec& spec,
                   const std::vector<SymbolicSet>& sets) {
  for (const auto& set : sets) {
    if (set.empty()) {
      throw std::invalid_argument("ModeTable: empty symbolic set");
    }
    for (const auto& o : set.ops()) {
      const int m = spec.method_index(o.method);
      if (m < 0) {
        throw std::invalid_argument("ModeTable: unknown method " + o.method +
                                    " for ADT " + spec.name());
      }
      if (static_cast<int>(o.args.size()) != spec.method(m).arity) {
        throw std::invalid_argument("ModeTable: arity mismatch for " +
                                    o.method);
      }
    }
  }
}

// Builds the mode for one site under a specific alpha assignment of its
// variables. `assignment` maps variable name -> alpha index.
Mode instantiate(const AdtSpec& spec, const SymbolicSet& set,
                 const std::vector<std::string>& vars,
                 const std::vector<int>& alphas) {
  Mode mode;
  mode.ops.reserve(set.ops().size());
  for (const auto& o : set.ops()) {
    AbstractOp aop;
    aop.method = spec.method_index(o.method);
    aop.args.reserve(o.args.size());
    for (const auto& a : o.args) {
      switch (a.kind) {
        case SymArg::Kind::Star:
          aop.args.push_back(AbstractArg::star());
          break;
        case SymArg::Kind::Const:
          aop.args.push_back(AbstractArg::of_const(a.constant));
          break;
        case SymArg::Kind::Var: {
          const auto it = std::find(vars.begin(), vars.end(), a.var);
          assert(it != vars.end());
          aop.args.push_back(AbstractArg::of_alpha(
              alphas[static_cast<std::size_t>(it - vars.begin())]));
          break;
        }
      }
    }
    mode.ops.push_back(std::move(aop));
  }
  return mode;
}

// Compact structural key for mode deduplication (hash-map lookup instead of
// a quadratic linear scan; tables are rebuilt per benchmark pass).
std::string mode_key(const Mode& m) {
  std::string key;
  key.reserve(m.ops.size() * 12);
  for (const auto& op : m.ops) {
    key.append(reinterpret_cast<const char*>(&op.method), sizeof(op.method));
    for (const auto& a : op.args) {
      key.push_back(static_cast<char>(a.kind));
      if (a.kind == AbstractArg::Kind::Const) {
        key.append(reinterpret_cast<const char*>(&a.constant),
                   sizeof(a.constant));
      } else if (a.kind == AbstractArg::Kind::Alpha) {
        key.append(reinterpret_cast<const char*>(&a.alpha), sizeof(a.alpha));
      }
    }
    key.push_back('|');
  }
  return key;
}

}  // namespace

ModeTable ModeTable::compile(const AdtSpec& spec,
                             std::vector<SymbolicSet> site_sets,
                             const ModeTableConfig& cfg) {
  validate_sets(spec, site_sets);
  ModeTable table(spec, cfg);
  const int n = table.phi_.size();

  // --- Pre-widening to respect the per-site tuple cap. -------------------
  for (auto& set : site_sets) {
    for (;;) {
      auto vars = set.variables();
      double entries = 1.0;
      for (std::size_t i = 0; i < vars.size(); ++i) entries *= n;
      if (entries <= static_cast<double>(cfg.max_tuple_entries) ||
          vars.empty()) {
        break;
      }
      set.widen_variable(vars.back());
    }
  }

  // --- Mode enumeration (with N-bound widening loop). --------------------
  std::vector<Mode> raw_modes;
  std::unordered_map<std::string, std::int32_t> mode_ids;
  for (;;) {
    raw_modes.clear();
    mode_ids.clear();
    table.sites_.clear();
    for (const auto& set : site_sets) {
      Site site;
      site.set = set;
      site.variables = set.variables();
      const auto k = site.variables.size();
      site.strides.assign(k, 1);
      std::size_t entries = 1;
      for (std::size_t i = 0; i < k; ++i) {
        site.strides[i] = static_cast<int>(entries);
        entries *= static_cast<std::size_t>(n);
      }
      site.lookup.assign(entries, -1);
      std::vector<int> alphas(k, 0);
      for (std::size_t idx = 0; idx < entries; ++idx) {
        // Decode mixed-radix tuple.
        std::size_t rem = idx;
        for (std::size_t i = 0; i < k; ++i) {
          alphas[i] = static_cast<int>(rem % static_cast<std::size_t>(n));
          rem /= static_cast<std::size_t>(n);
        }
        Mode m = instantiate(spec, set, site.variables, alphas);
        auto [mit, fresh] = mode_ids.try_emplace(
            mode_key(m), static_cast<std::int32_t>(raw_modes.size()));
        if (fresh) raw_modes.push_back(std::move(m));
        site.lookup[idx] = mit->second;
      }
      table.sites_.push_back(std::move(site));
    }

    if (static_cast<int>(raw_modes.size()) <= cfg.max_modes) break;

    // Over the bound N: widen the last variable of the site contributing
    // the most modes (its lookup table is the largest), then re-enumerate.
    std::size_t worst = 0;
    std::size_t worst_entries = 0;
    bool found = false;
    for (std::size_t s = 0; s < site_sets.size(); ++s) {
      const auto vars = site_sets[s].variables();
      if (vars.empty()) continue;
      std::size_t entries = 1;
      for (std::size_t i = 0; i < vars.size(); ++i) {
        entries *= static_cast<std::size_t>(n);
      }
      if (entries > worst_entries) {
        worst_entries = entries;
        worst = s;
        found = true;
      }
    }
    if (!found) break;  // all sets constant; cannot reduce further
    site_sets[worst].widen_variable(site_sets[worst].variables().back());
  }
  table.num_raw_modes_ = static_cast<int>(raw_modes.size());

  // --- F_c over raw modes. ------------------------------------------------
  const std::size_t nr = raw_modes.size();
  std::vector<char> fc_raw(nr * nr, 0);
  for (std::size_t i = 0; i < nr; ++i) {
    fc_raw[i * nr + i] =
        modes_commute(spec, table.phi_, raw_modes[i], raw_modes[i]) ? 1 : 0;
    for (std::size_t j = i + 1; j < nr; ++j) {
      const char c =
          modes_commute(spec, table.phi_, raw_modes[i], raw_modes[j]) ? 1 : 0;
      fc_raw[i * nr + j] = c;
      fc_raw[j * nr + i] = c;
    }
  }

  // --- Merge indistinguishable modes (Section 5.3, optimization 1). ------
  std::vector<std::int32_t> canon_of(nr);
  if (cfg.merge_indistinguishable && nr > 0) {
    std::map<std::vector<char>, std::int32_t> row_to_canon;
    for (std::size_t i = 0; i < nr; ++i) {
      std::vector<char> row(fc_raw.begin() + static_cast<std::ptrdiff_t>(i * nr),
                            fc_raw.begin() +
                                static_cast<std::ptrdiff_t>((i + 1) * nr));
      auto [it, inserted] = row_to_canon.try_emplace(
          std::move(row), static_cast<std::int32_t>(table.modes_.size()));
      canon_of[i] = it->second;
      if (inserted) {
        table.modes_.push_back(raw_modes[i]);
      } else {
        // Record the merged representative's ops for introspection.
        auto& canon_mode =
            table.modes_[static_cast<std::size_t>(it->second)];
        for (const auto& o : raw_modes[i].ops) {
          if (std::find(canon_mode.ops.begin(), canon_mode.ops.end(), o) ==
              canon_mode.ops.end()) {
            canon_mode.ops.push_back(o);
          }
        }
      }
    }
  } else {
    table.modes_ = raw_modes;
    std::iota(canon_of.begin(), canon_of.end(), 0);
  }

  // Remap per-site lookup tables onto canonical ids.
  for (auto& site : table.sites_) {
    for (auto& id : site.lookup) id = canon_of[static_cast<std::size_t>(id)];
  }

  // --- Canonical F_c. ------------------------------------------------------
  const std::size_t nc = table.modes_.size();
  table.fc_.assign(nc * nc, 1);
  // Representative raw mode per canonical id.
  std::vector<std::size_t> rep(nc, 0);
  for (std::size_t i = 0; i < nr; ++i) {
    rep[static_cast<std::size_t>(canon_of[i])] = i;
  }
  for (std::size_t i = 0; i < nc; ++i) {
    for (std::size_t j = 0; j < nc; ++j) {
      table.fc_[i * nc + j] = fc_raw[rep[i] * nr + rep[j]];
    }
  }

  // --- Lock partitioning (Section 5.2): connected components of the ------
  // conflict graph. With partitioning disabled, all modes share one
  // partition (single internal lock — the ablation baseline).
  std::vector<std::int32_t> parent(nc);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::int32_t x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  auto unite = [&](std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
        std::min(a, b);
  };
  if (cfg.partition) {
    for (std::size_t i = 0; i < nc; ++i) {
      for (std::size_t j = i + 1; j < nc; ++j) {
        if (!table.fc_[i * nc + j]) {
          unite(static_cast<std::int32_t>(i), static_cast<std::int32_t>(j));
        }
      }
    }
  } else {
    for (std::size_t i = 1; i < nc; ++i) unite(0, static_cast<std::int32_t>(i));
  }
  table.partition_.assign(nc, 0);
  std::vector<std::int32_t> part_id(nc, -1);
  int next_part = 0;
  for (std::size_t i = 0; i < nc; ++i) {
    const std::int32_t root = find(static_cast<std::int32_t>(i));
    if (part_id[static_cast<std::size_t>(root)] < 0) {
      part_id[static_cast<std::size_t>(root)] = next_part++;
    }
    table.partition_[i] = part_id[static_cast<std::size_t>(root)];
  }
  table.num_partitions_ = next_part;

  // --- Per-mode conflict lists. -------------------------------------------
  table.conflicts_.assign(nc, {});
  for (std::size_t i = 0; i < nc; ++i) {
    for (std::size_t j = 0; j < nc; ++j) {
      if (!table.fc_[i * nc + j]) {
        table.conflicts_[i].push_back(static_cast<std::int32_t>(j));
        // Invariant required by the lock mechanism: conflicting modes share
        // a partition (they are connected in the conflict graph).
        assert(table.partition_[i] == table.partition_[j]);
      }
    }
  }

  // --- Packed-word layout (packed_layout.h). ------------------------------
  // Field widths: carve the waiters bit and two barrier bits per partition
  // out of the top, split the rest evenly (capped at 8 bits — a mini-counter
  // of 255 concurrent holders is already far past any real transaction
  // count), and require at least 4 bits per field so saturation stays rare.
  // Partitions never exceed modes, so every table with <= kMaxPackedModes
  // modes is eligible.
  {
    const int m = static_cast<int>(nc);
    const int p = table.num_partitions_;
    if (m >= 1 && m <= kMaxPackedModes) {
      const std::uint32_t aux = 1u + 2u * static_cast<std::uint32_t>(p);
      const std::uint32_t bits =
          std::min(8u, (64u - aux) / static_cast<std::uint32_t>(m));
      if (bits >= 4) {
        PackedLayout& l = table.packed_;
        l.num_modes = m;
        l.num_partitions = p;
        l.bits_per_mode = bits;
        l.field_max = (std::uint64_t{1} << bits) - 1;
        l.waiters_bit = std::uint64_t{1} << 63;
        for (int i = 0; i < m; ++i) {
          const auto mi = static_cast<std::size_t>(i);
          l.shift[mi] = static_cast<std::uint32_t>(i) * bits;
          l.inc[mi] = std::uint64_t{1} << l.shift[mi];
          l.field_mask[mi] = l.field_max << l.shift[mi];
        }
        for (int i = 0; i < p; ++i) {
          const auto pi = static_cast<std::size_t>(i);
          l.closed_bit[pi] = std::uint64_t{1} << (62 - 2 * i);
          l.counting_bit[pi] = std::uint64_t{1} << (61 - 2 * i);
        }
        // Counter fields grow upward, barrier bits downward; they can never
        // meet because bits was computed to leave the aux bits free.
        assert(static_cast<std::uint32_t>(m) * bits <=
               64u - (1u + 2u * static_cast<std::uint32_t>(p)));
        for (int i = 0; i < m; ++i) {
          const auto mi = static_cast<std::size_t>(i);
          std::uint64_t conflict = 0;
          for (const std::int32_t other : table.conflicts_[mi]) {
            conflict |= l.field_mask[static_cast<std::size_t>(other)];
          }
          l.conflict_mask[mi] = conflict;
          l.doorway_mask[mi] =
              conflict |
              l.closed_bit[static_cast<std::size_t>(table.partition_[mi])];
        }
        table.packed_ok_ = true;
      }
    }
  }

  return table;
}

int ModeTable::resolve(int site,
                       std::span<const commute::Value> values) const {
  const Site& s = sites_[static_cast<std::size_t>(site)];
  assert(values.size() == s.variables.size());
  std::size_t idx = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    idx += static_cast<std::size_t>(s.strides[i]) *
           static_cast<std::size_t>(phi_.alpha_of(values[i]));
  }
  return s.lookup[idx];
}

std::string ModeTable::describe() const {
  std::string out = "ModeTable for ADT " + spec_->name() + " (n=" +
                    std::to_string(phi_.size()) + " abstract values)\n";
  out += "sites:\n";
  for (int s = 0; s < num_sites(); ++s) {
    out += "  site " + std::to_string(s) + ": " +
           sites_[static_cast<std::size_t>(s)].set.to_string() + "\n";
  }
  out += "modes (" + std::to_string(num_modes()) + " canonical, " +
         std::to_string(num_raw_modes_) + " raw):\n";
  for (int m = 0; m < num_modes(); ++m) {
    out += "  l" + std::to_string(m) + " = " +
           modes_[static_cast<std::size_t>(m)].to_string(*spec_) +
           "  [partition " + std::to_string(partition_of(m)) + "]\n";
  }
  out += "F_c:\n";
  for (int i = 0; i < num_modes(); ++i) {
    out += "  ";
    for (int j = 0; j < num_modes(); ++j) {
      out += commutes(i, j) ? "T " : "F ";
    }
    out += "\n";
  }
  return out;
}

}  // namespace semlock
