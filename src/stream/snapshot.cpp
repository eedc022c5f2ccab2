#include "stream/snapshot.h"

#include <fstream>

#include "capture/dataset.h"

namespace cw::stream {

namespace {

capture::SessionFrame build_segment_frame(const capture::EventStore& store,
                                          const topology::Deployment& deployment,
                                          const VerdictFactory& verdict, runner::ThreadPool* pool,
                                          capture::SharedFrameDicts* shared_dicts,
                                          bool verdict_pure) {
  capture::SessionFrame::BuildOptions options;
  options.pool = pool;
  options.shared_dicts = shared_dicts;
  options.verdict_pure = verdict_pure;
  if (verdict) options.verdict = verdict(store);
  return capture::SessionFrame::build(store, deployment, std::move(options));
}

}  // namespace

Segment::Segment(std::uint64_t id, std::uint64_t base, capture::EventStore&& store,
                 const topology::Deployment& deployment, const VerdictFactory& verdict,
                 runner::ThreadPool* pool, capture::SharedFrameDicts* shared_dicts,
                 bool verdict_pure)
    : id_(id),
      base_(base),
      deployment_(&deployment),
      store_(std::move(store)),
      frame_(build_segment_frame(store_, deployment, verdict, pool, shared_dicts, verdict_pure)) {}

bool Segment::spill(const std::string& dir, std::string* error) const {
  if (spilled()) return true;
  std::string path = dir + "/segment-" + std::to_string(id_) + ".cwds";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !capture::write_dataset(store_, &frame_, out)) {
      if (error) *error = "segment spill: cannot write " + path;
      return false;
    }
  }
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  if (!capture::probe_frame_section(path, offset, length, error)) return false;
  capture::FrameView view;
  if (!view.open(path, offset, length, *deployment_, {}, error)) return false;
  view_ = std::move(view);
  // Rebind the live frame onto the mapping in place (map() drops its store
  // pin), then free the record store — from here the file is authoritative.
  if (!view_.map(frame_, error)) return false;
  store_ = capture::EventStore{};
  spill_path_ = std::move(path);
  return true;
}

bool Segment::ensure_mapped(std::string* error) const {
  if (!spilled()) return true;
  if (frame_.mapped() && view_.mapped()) return true;
  return view_.map(frame_, error);
}

void Segment::release_mapping() const {
  if (!spilled()) return;
  view_.unmap(frame_);
}

std::shared_ptr<const Segment> Segment::load_spilled(const std::string& path, std::uint64_t id,
                                                     std::uint64_t base,
                                                     const topology::Deployment& deployment,
                                                     std::string* error) {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  if (!capture::probe_frame_section(path, offset, length, error)) return nullptr;
  std::shared_ptr<Segment> segment(new Segment());
  segment->id_ = id;
  segment->base_ = base;
  segment->deployment_ = &deployment;
  capture::FrameView::Options options;
  options.load_dicts = true;
  if (!segment->view_.open(path, offset, length, deployment, options, error)) return nullptr;
  if (!segment->view_.map(segment->frame_, error)) return nullptr;
  segment->spill_path_ = path;
  return segment;
}

EpochSnapshot EpochSnapshot::extend(const EpochSnapshot& prev,
                                    std::shared_ptr<const Segment> segment) {
  EpochSnapshot next;
  next.epoch_ = prev.epoch_ + 1;
  next.size_ = prev.size_ + segment->size();
  next.segments_.reserve(prev.segments_.size() + 1);
  next.segments_ = prev.segments_;
  next.segments_.push_back(std::move(segment));
  return next;
}

std::vector<const capture::SessionFrame*> EpochSnapshot::frames() const {
  std::vector<const capture::SessionFrame*> out;
  out.reserve(segments_.size());
  for (const auto& segment : segments_) out.push_back(&segment->frame());
  return out;
}

}  // namespace cw::stream
