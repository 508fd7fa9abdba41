#include "storage/index.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace carac::storage {

const char* IndexKindName(IndexKind kind) {
  for (const IndexKindInfo& info : kIndexKindTable) {
    if (info.kind == kind) return info.name;
  }
  return "?";
}

bool ParseIndexKind(const std::string& name, IndexKind* out) {
  for (const IndexKindInfo& info : kIndexKindTable) {
    if (name == info.name) {
      *out = info.kind;
      return true;
    }
  }
  return false;
}

namespace {

/// Comma-separated canonical names from kIndexKindTable, restricted to
/// the ordered kinds when `ordered_only`.
std::string JoinKindNames(bool ordered_only) {
  std::string s;
  for (const IndexKindInfo& info : kIndexKindTable) {
    if (ordered_only && !IndexKindIsOrdered(info.kind)) continue;
    if (!s.empty()) s += ", ";
    s += info.name;
  }
  return s;
}

}  // namespace

const std::string& IndexKindNameList() {
  static const std::string list = JoinKindNames(/*ordered_only=*/false);
  return list;
}

// ---- IndexBase defaults ----

util::Status IndexBase::RangeUnsupported() const {
  return util::Status::FailedPrecondition(
      "ProbeRange requires an ordered index, but column " +
      std::to_string(column_) + " has a " + IndexKindName(kind_) +
      " index; declare it with an ordered kind (" +
      JoinKindNames(/*ordered_only=*/true) + ")");
}

util::Status IndexBase::ProbeRange(Value lo, Value hi,
                                   std::vector<RowId>* out) const {
  (void)lo;
  (void)hi;
  (void)out;
  return RangeUnsupported();
}

void IndexBase::BatchProbe(const Value* keys, size_t n,
                           RowCursor* out) const {
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && keys[i] == keys[i - 1]) {
      out[i] = out[i - 1];  // Equal-adjacent run: reuse the cursor.
      continue;
    }
    out[i] = Probe(keys[i]);
  }
}

void IndexBase::Stabilize(RowId limit) { (void)limit; }

bool IndexBase::KeyBounds(Value* min, Value* max) const {
  (void)min;
  (void)max;
  return false;
}

// ---- BtreeIndex ----

void BtreeIndex::SplitChild(uint32_t parent_id, size_t pos) {
  const uint32_t child_id = nodes_[parent_id].children[pos];
  const uint32_t right_id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();  // May reallocate: take references afterwards.
  Node& child = nodes_[child_id];
  Node& right = nodes_[right_id];
  right.leaf = child.leaf;
  const size_t mid = kMaxKeys / 2;
  Value up_key;
  if (child.leaf) {
    // Copy-up: the separator stays in the right leaf.
    right.keys.assign(child.keys.begin() + mid, child.keys.end());
    right.children.assign(child.children.begin() + mid,
                          child.children.end());
    child.keys.resize(mid);
    child.children.resize(mid);
    right.next = child.next;
    child.next = right_id;
    up_key = right.keys.front();
  } else {
    // Move-up: the separator leaves the node.
    up_key = child.keys[mid];
    right.keys.assign(child.keys.begin() + mid + 1, child.keys.end());
    right.children.assign(child.children.begin() + mid + 1,
                          child.children.end());
    child.keys.resize(mid);
    child.children.resize(mid + 1);
  }
  Node& parent = nodes_[parent_id];
  parent.keys.insert(parent.keys.begin() + pos, up_key);
  parent.children.insert(parent.children.begin() + pos + 1, right_id);
}

void BtreeIndex::AddFast(RowId row, Value key) {
  if (root_ == kNoNode) {
    root_ = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  if (nodes_[root_].keys.size() >= kMaxKeys) {
    const uint32_t new_root = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
    Node& top = nodes_[new_root];
    top.leaf = false;
    top.children.push_back(root_);
    root_ = new_root;
    SplitChild(new_root, 0);
  }
  // Preemptive-split descent: every node we enter has room, so the leaf
  // insert never has to propagate back up.
  uint32_t id = root_;
  while (!nodes_[id].leaf) {
    const Node& node = nodes_[id];
    size_t pos = static_cast<size_t>(
        std::upper_bound(node.keys.begin(), node.keys.end(), key) -
        node.keys.begin());
    uint32_t child = node.children[pos];
    if (nodes_[child].keys.size() >= kMaxKeys) {
      SplitChild(id, pos);
      const Node& split_parent = nodes_[id];
      // Keys equal to the promoted separator live in the right sibling
      // (separators route key >= separator to the right, matching the
      // upper_bound descent).
      if (key >= split_parent.keys[pos]) ++pos;
      child = split_parent.children[pos];
    }
    id = child;
  }
  Node& leaf = nodes_[id];
  const size_t pos = static_cast<size_t>(
      std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key) -
      leaf.keys.begin());
  if (pos < leaf.keys.size() && leaf.keys[pos] == key) {
    buckets_[leaf.children[pos]].push_back(row);
    return;
  }
  leaf.keys.insert(leaf.keys.begin() + pos, key);
  leaf.children.insert(leaf.children.begin() + pos,
                       static_cast<uint32_t>(buckets_.size()));
  buckets_.emplace_back(1, row);
}

uint32_t BtreeIndex::FindLeaf(Value key) const {
  if (root_ == kNoNode) return kNoNode;
  uint32_t id = root_;
  while (!nodes_[id].leaf) {
    const Node& node = nodes_[id];
    const size_t pos = static_cast<size_t>(
        std::upper_bound(node.keys.begin(), node.keys.end(), key) -
        node.keys.begin());
    id = node.children[pos];
  }
  return id;
}

RowCursor BtreeIndex::ProbeFast(Value value) const {
  const uint32_t id = FindLeaf(value);
  if (id == kNoNode) return RowCursor();
  const Node& leaf = nodes_[id];
  const size_t pos = static_cast<size_t>(
      std::lower_bound(leaf.keys.begin(), leaf.keys.end(), value) -
      leaf.keys.begin());
  if (pos >= leaf.keys.size() || leaf.keys[pos] != value) return RowCursor();
  const std::vector<RowId>& bucket = buckets_[leaf.children[pos]];
  return RowCursor(bucket.data(), bucket.size());
}

util::Status BtreeIndex::ProbeRange(Value lo, Value hi,
                                    std::vector<RowId>* out) const {
  uint32_t id = FindLeaf(lo);
  if (id == kNoNode) return util::Status::Ok();
  const Node* leaf = &nodes_[id];
  size_t pos = static_cast<size_t>(
      std::lower_bound(leaf->keys.begin(), leaf->keys.end(), lo) -
      leaf->keys.begin());
  while (true) {
    if (pos >= leaf->keys.size()) {
      if (leaf->next == kNoNode) return util::Status::Ok();
      leaf = &nodes_[leaf->next];
      pos = 0;
      continue;
    }
    if (leaf->keys[pos] > hi) return util::Status::Ok();
    const std::vector<RowId>& bucket = buckets_[leaf->children[pos]];
    out->insert(out->end(), bucket.begin(), bucket.end());
    ++pos;
  }
}

void BtreeIndex::BatchProbe(const Value* keys, size_t n,
                            RowCursor* out) const {
  // Probe in ascending key order so consecutive descents share upper
  // tree levels and leaf cache lines, then scatter the cursors back.
  if (n <= 2) {
    IndexBase::BatchProbe(keys, n, out);
    return;
  }
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
  });
  bool have_last = false;
  Value last_key = 0;
  RowCursor last_cursor;
  for (uint32_t idx : order) {
    if (!have_last || keys[idx] != last_key) {
      last_cursor = ProbeFast(keys[idx]);
      last_key = keys[idx];
      have_last = true;
    }
    out[idx] = last_cursor;
  }
}

void BtreeIndex::Clear() {
  nodes_.clear();
  buckets_.clear();
  root_ = kNoNode;
}

bool BtreeIndex::KeyBounds(Value* min, Value* max) const {
  if (root_ == kNoNode) return false;
  uint32_t id = root_;
  while (!nodes_[id].leaf) id = nodes_[id].children.front();
  if (nodes_[id].keys.empty()) return false;
  *min = nodes_[id].keys.front();
  id = root_;
  while (!nodes_[id].leaf) id = nodes_[id].children.back();
  *max = nodes_[id].keys.back();
  return true;
}

// ---- LearnedIndex ----

util::Status LearnedIndex::ProbeRange(Value lo, Value hi,
                                      std::vector<RowId>* out) const {
  // The prefix run [lo, hi] is contiguous; tail keys in range are
  // collected, sorted and merged in so the output stays in ascending
  // (key, row) order.
  size_t i = static_cast<size_t>(
      std::lower_bound(prefix_keys_.begin(), prefix_keys_.end(), lo) -
      prefix_keys_.begin());
  const size_t end = static_cast<size_t>(
      std::upper_bound(prefix_keys_.begin(), prefix_keys_.end(), hi) -
      prefix_keys_.begin());
  std::vector<std::pair<Value, const std::vector<RowId>*>> tails;
  for (const auto& [key, rows] : tail_) {
    if (key >= lo && key <= hi) tails.emplace_back(key, &rows);
  }
  if (tails.empty()) {
    // No unstable rows in range: the prefix run is already in ascending
    // (key, row) order, so it IS the answer — one contiguous copy. This
    // is the range-scan fast path the immutable layout exists for.
    out->insert(out->end(), prefix_rows_.begin() + static_cast<ptrdiff_t>(i),
                prefix_rows_.begin() + static_cast<ptrdiff_t>(end));
    return util::Status::Ok();
  }
  std::sort(tails.begin(), tails.end());
  size_t t = 0;
  while (i < end || t < tails.size()) {
    if (t >= tails.size() ||
        (i < end && prefix_keys_[i] <= tails[t].first)) {
      const Value key = prefix_keys_[i];
      while (i < end && prefix_keys_[i] == key) {
        out->push_back(prefix_rows_[i]);
        ++i;
      }
      if (t < tails.size() && tails[t].first == key) {
        out->insert(out->end(), tails[t].second->begin(),
                    tails[t].second->end());
        ++t;
      }
    } else {
      out->insert(out->end(), tails[t].second->begin(),
                  tails[t].second->end());
      ++t;
    }
  }
  return util::Status::Ok();
}

void LearnedIndex::Stabilize(RowId limit) {
  if (limit <= stable_limit_) return;
  std::vector<std::pair<Value, RowId>> moved;
  for (auto it = tail_.begin(); it != tail_.end();) {
    std::vector<RowId>& bucket = it->second;
    // Buckets are ascending, so the rows now below the stable limit are
    // a prefix of the bucket.
    const auto split =
        std::lower_bound(bucket.begin(), bucket.end(), limit);
    for (auto b = bucket.begin(); b != split; ++b) {
      moved.emplace_back(it->first, *b);
    }
    bucket.erase(bucket.begin(), split);
    it = bucket.empty() ? tail_.erase(it) : std::next(it);
  }
  stable_limit_ = limit;
  if (moved.empty()) return;
  std::sort(moved.begin(), moved.end());
  // Two-way merge of the old prefix and the newly stable rows.
  std::vector<Value> keys;
  std::vector<RowId> rows;
  keys.reserve(prefix_keys_.size() + moved.size());
  rows.reserve(prefix_rows_.size() + moved.size());
  size_t a = 0;
  size_t b = 0;
  while (a < prefix_keys_.size() || b < moved.size()) {
    const bool take_prefix =
        b >= moved.size() ||
        (a < prefix_keys_.size() &&
         (prefix_keys_[a] < moved[b].first ||
          (prefix_keys_[a] == moved[b].first &&
           prefix_rows_[a] < moved[b].second)));
    if (take_prefix) {
      keys.push_back(prefix_keys_[a]);
      rows.push_back(prefix_rows_[a]);
      ++a;
    } else {
      keys.push_back(moved[b].first);
      rows.push_back(moved[b].second);
      ++b;
    }
  }
  prefix_keys_ = std::move(keys);
  prefix_rows_ = std::move(rows);
  RefitModel();
}

void LearnedIndex::Clear() {
  prefix_keys_.clear();
  prefix_rows_.clear();
  stable_limit_ = 0;
  tail_.clear();
  have_key_bounds_ = false;
  key_lo_ = 0;
  key_hi_ = 0;
  segments_.clear();
  min_key_ = 0;
  max_key_ = 0;
}

void LearnedIndex::RefitModel() {
  segments_.clear();
  min_key_ = 0;
  max_key_ = 0;
  const size_t n = prefix_keys_.size();
  if (n == 0) return;
  min_key_ = prefix_keys_.front();
  max_key_ = prefix_keys_.back();
  // Fit against a slightly tighter bound than the probe window so
  // floating-point rounding at probe time can never push a trained key
  // outside ±kEpsilon.
  const double eps = static_cast<double>(kEpsilon) - 1.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Greedy shrinking-cone pass over the (distinct key, first position)
  // points: a segment absorbs keys while some slope keeps every absorbed
  // point within ±eps of the line through the segment's first point;
  // when the feasible slope interval empties, the segment closes and the
  // breaking key starts the next one. One pass, O(#distinct keys).
  size_t i = 0;
  while (i < n) {
    const Value first_key = prefix_keys_[i];
    const double first_pos = static_cast<double>(i);
    double lo = 0.0;
    double hi = kInf;
    size_t j = i;
    while (j < n && prefix_keys_[j] == first_key) ++j;
    while (j < n) {
      const Value key = prefix_keys_[j];
      const double dx =
          static_cast<double>(key) - static_cast<double>(first_key);
      const double dy = static_cast<double>(j) - first_pos;
      const double new_lo = std::max(lo, (dy - eps) / dx);
      const double new_hi = std::min(hi, (dy + eps) / dx);
      if (new_lo > new_hi) break;  // Cone collapsed: close the segment.
      lo = new_lo;
      hi = new_hi;
      while (j < n && prefix_keys_[j] == key) ++j;
    }
    Segment seg;
    seg.first_key = first_key;
    seg.intercept = first_pos;
    seg.slope = hi == kInf ? 0.0 : 0.5 * (lo + hi);
    segments_.push_back(seg);
    i = j;
  }
}

bool LearnedIndex::PredictPosition(Value value, size_t* pos) const {
  if (segments_.empty() || value < min_key_ || value > max_key_) {
    return false;
  }
  // Last segment whose first_key <= value. The min_key_ gate above makes
  // the directory search start past begin().
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), value,
      [](Value v, const Segment& s) { return v < s.first_key; });
  const Segment& seg = *(it - 1);
  const double dx =
      static_cast<double>(value) - static_cast<double>(seg.first_key);
  const double predicted = seg.intercept + seg.slope * dx;
  size_t p = predicted <= 0.0 ? 0 : static_cast<size_t>(predicted);
  if (p >= prefix_keys_.size()) p = prefix_keys_.size() - 1;
  *pos = p;
  return true;
}

RowCursor LearnedIndex::ProbeFast(Value value) const {
  const RowId* prefix = nullptr;
  size_t count = 0;
  const size_t n = prefix_keys_.size();
  size_t predicted;
  if (n != 0 && PredictPosition(value, &predicted)) {
    size_t begin;
    bool located = false;
    const size_t wlo = predicted > kEpsilon ? predicted - kEpsilon : 0;
    const size_t whi = std::min(n, predicted + kEpsilon + 1);
    // Bracket check: the global lower_bound lies inside [wlo, whi] iff
    // everything before the window is < value and the first key at or
    // past its end is >= value. Trained keys always pass (the fit bounds
    // their error); an untrained key that misses falls back to the full
    // binary search, so the model is never load-bearing for correctness.
    if ((wlo == 0 || prefix_keys_[wlo - 1] < value) &&
        (whi == n || prefix_keys_[whi] >= value)) {
      begin = static_cast<size_t>(
          std::lower_bound(prefix_keys_.begin() +
                               static_cast<ptrdiff_t>(wlo),
                           prefix_keys_.begin() + static_cast<ptrdiff_t>(whi),
                           value) -
          prefix_keys_.begin());
      located = true;
    }
    if (!located) {
      begin = static_cast<size_t>(
          std::lower_bound(prefix_keys_.begin(), prefix_keys_.end(), value) -
          prefix_keys_.begin());
    }
    if (begin < n && prefix_keys_[begin] == value) {
      // Duplicate runs can outrun the window. Gallop for the run's end —
      // doubling probes stay inside the run (cache-local), then a binary
      // search over the last doubling span pins it: O(log run) versus a
      // binary search scattered across the whole remaining suffix.
      size_t off = 1;
      while (begin + off < n && prefix_keys_[begin + off] == value) {
        off <<= 1;
      }
      const size_t lo_idx = begin + (off >> 1);
      const size_t hi_idx = std::min(n, begin + off);
      const size_t end = static_cast<size_t>(
          std::upper_bound(prefix_keys_.begin() +
                               static_cast<ptrdiff_t>(lo_idx),
                           prefix_keys_.begin() +
                               static_cast<ptrdiff_t>(hi_idx),
                           value) -
          prefix_keys_.begin());
      prefix = prefix_rows_.data() + begin;
      count = end - begin;
    }
  }
  if (tail_.empty()) return RowCursor(prefix, count);  // The common case
  // on a stabilized column: skip even the hash of `value`.
  auto it = tail_.find(value);
  if (it == tail_.end()) return RowCursor(prefix, count);
  // Prefix rows are all < stable_limit_ <= every tail row, so the
  // concatenation stays in ascending RowId order.
  return RowCursor(prefix, count, it->second.data(), it->second.size());
}

// ---- Factory ----

std::unique_ptr<IndexBase> MakeIndex(size_t column, IndexKind kind) {
  switch (kind) {
    case IndexKind::kHash:
      return std::make_unique<HashIndex>(column);
    case IndexKind::kBtree:
      return std::make_unique<BtreeIndex>(column);
    case IndexKind::kLearned:
      return std::make_unique<LearnedIndex>(column);
  }
  return std::make_unique<HashIndex>(column);  // Unreachable.
}

}  // namespace carac::storage
