#include "legal/eco/edit_log.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mclg {

EditLog::EditLog(const Design& design) : design_(&design) {
  commit_.cells = design.numCells();
  beginRequest();
}

void EditLog::beginRequest() {
  MCLG_ASSERT(request_.entries.empty(), "a request is already open");
  request_.cells = design_->numCells();
  const auto size = static_cast<std::size_t>(request_.cells);
  if (request_.slot.size() < size) request_.slot.resize(size, -1);
  if (commit_.slot.size() < size) commit_.slot.resize(size, -1);
}

void EditLog::record(CellId c) {
  if (c >= request_.cells) return;  // added by this request
  int& slot = request_.slot[static_cast<std::size_t>(c)];
  if (slot >= 0) return;
  slot = static_cast<int>(request_.entries.size());
  request_.entries.push_back({c, design_->cells[c]});
}

const EditLog::Entry* EditLog::find(const Level& level, CellId c) {
  if (c < 0 || static_cast<std::size_t>(c) >= level.slot.size()) {
    return nullptr;
  }
  const int slot = level.slot[static_cast<std::size_t>(c)];
  return slot < 0 ? nullptr : &level.entries[static_cast<std::size_t>(slot)];
}

const Cell& EditLog::atRequestStart(CellId c) const {
  const Entry* entry = find(request_, c);
  return entry != nullptr ? entry->prior : design_->cells[c];
}

const Cell& EditLog::atCommit(CellId c) const {
  const Entry* entry = find(commit_, c);
  return entry != nullptr ? entry->prior : atRequestStart(c);
}

void EditLog::clear(Level& level) {
  for (const Entry& entry : level.entries) {
    level.slot[static_cast<std::size_t>(entry.cell)] = -1;
  }
  level.entries.clear();
}

void EditLog::acceptRequest() {
  // A cell the commit level has not seen was untouched since the commit,
  // so its request-level prior is its committed value.
  for (const Entry& entry : request_.entries) {
    if (entry.cell >= commit_.cells) continue;  // added since the commit
    int& slot = commit_.slot[static_cast<std::size_t>(entry.cell)];
    if (slot >= 0) continue;
    slot = static_cast<int>(commit_.entries.size());
    commit_.entries.push_back(entry);
  }
  clear(request_);
  beginRequest();
}

void EditLog::undo(Level& level, PlacementState& state) {
  Design& design = state.design();
  PlacementListener* const listener = state.listener();
  state.setListener(nullptr);
  // Take every affected cell out of the occupancy index under its current
  // footprint, rewrite the cells, then re-place the previously placed ones
  // (the restored placement was consistent, so no re-place collides).
  // The design's cached per-height statistics go stale only when a cell
  // changes type or leaves the design.
  bool retyped = level.cells < design.numCells();
  for (const Entry& entry : level.entries) {
    retyped = retyped || design.cells[entry.cell].type != entry.prior.type;
    if (design.cells[entry.cell].placed) state.remove(entry.cell);
  }
  for (CellId c = level.cells; c < design.numCells(); ++c) {
    if (design.cells[c].placed) state.remove(c);
  }
  design.cells.resize(static_cast<std::size_t>(level.cells));
  for (const Entry& entry : level.entries) {
    Cell& cell = design.cells[entry.cell];
    cell = entry.prior;
    cell.placed = false;
  }
  for (const Entry& entry : level.entries) {
    if (entry.prior.placed) {
      state.place(entry.cell, entry.prior.x, entry.prior.y);
    }
  }
  state.setListener(listener);
  if (retyped) design.invalidateCaches();
  clear(level);
}

void EditLog::undoRequest(PlacementState& state) {
  undo(request_, state);
  beginRequest();
}

void EditLog::undoCommit(PlacementState& state) {
  undo(request_, state);
  undo(commit_, state);
  beginRequest();
}

void EditLog::commit() {
  MCLG_ASSERT(request_.entries.empty(), "commit inside an open request");
  clear(commit_);
  commit_.cells = design_->numCells();
  beginRequest();
}

std::vector<CellId> EditLog::requestChanges() const {
  std::vector<CellId> out;
  out.reserve(request_.entries.size());
  for (const Entry& entry : request_.entries) out.push_back(entry.cell);
  std::sort(out.begin(), out.end());
  for (CellId c = request_.cells; c < design_->numCells(); ++c) {
    out.push_back(c);
  }
  return out;
}

std::vector<CellId> EditLog::commitChanges() const {
  std::vector<CellId> out;
  for (const Level* level : {&commit_, &request_}) {
    for (const Entry& entry : level->entries) {
      if (entry.cell < commit_.cells) out.push_back(entry.cell);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  for (CellId c = commit_.cells; c < design_->numCells(); ++c) {
    out.push_back(c);
  }
  return out;
}

}  // namespace mclg
