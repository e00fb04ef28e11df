#include "core/drms_context.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "adapt/controller.hpp"
#include "core/exchange.hpp"
#include "core/streamer.hpp"
#include "rt/collectives.hpp"
#include "support/error.hpp"

namespace drms::core {

DrmsProgram::DrmsProgram(std::string app_name, DrmsEnv env,
                         AppSegmentModel segment_model, int task_count)
    : app_name_(std::move(app_name)),
      env_(env),
      segment_model_(segment_model),
      task_count_(task_count) {
  DRMS_EXPECTS(env_.storage != nullptr);
  DRMS_EXPECTS(task_count_ >= 1);
}

void DrmsProgram::enable_checkpoint(std::function<void()> on_held) {
  const std::lock_guard<std::mutex> lock(signal_mutex_);
  checkpoint_enabled_ = true;
  if (on_held != nullptr) {
    on_held_ = std::move(on_held);
  }
}

bool DrmsProgram::release_hold() {
  {
    const std::lock_guard<std::mutex> lock(signal_mutex_);
    if (held_ && parked_ == task_count_) {
      return false;
    }
    checkpoint_enabled_ = false;
    on_held_ = nullptr;
    held_ = false;
  }
  signal_cv_.notify_all();
  return true;
}

std::pair<bool, bool> DrmsProgram::take_enabling_signal() {
  const std::lock_guard<std::mutex> lock(signal_mutex_);
  const bool checkpoint = std::exchange(checkpoint_enabled_, false);
  held_ = checkpoint && on_held_ != nullptr;
  parked_ = 0;
  return {checkpoint, held_};
}

void DrmsProgram::park(const rt::TaskContext& ctx) {
  std::function<void()> on_held;
  {
    const std::lock_guard<std::mutex> lock(signal_mutex_);
    if (!held_) {
      return;  // lifted before this task got here
    }
    if (++parked_ == task_count_) {
      on_held = std::move(on_held_);
      on_held_ = nullptr;
    }
  }
  if (on_held != nullptr) {
    on_held();
    signal_cv_.notify_all();  // the kill has landed: wake every parker
  }
  // A kill raised elsewhere (a processor failure) does not signal this
  // condition, so the wait re-checks the kill switch every millisecond.
  std::unique_lock<std::mutex> lock(signal_mutex_);
  for (;;) {
    ctx.check_killed();
    if (!held_) {
      return;
    }
    signal_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

CheckpointTiming DrmsProgram::last_checkpoint_timing() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_checkpoint_;
}

RestartTiming DrmsProgram::last_restart_timing() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_restart_;
}

DeltaChainState DrmsProgram::delta_chain_state() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return delta_chain_;
}

DrmsContext::DrmsContext(DrmsProgram& program, rt::TaskContext& ctx)
    : program_(program), ctx_(ctx) {
  DRMS_EXPECTS_MSG(ctx.size() == program.task_count_,
                   "DrmsProgram was created for a different group size");
  // The SOP counter is part of the execution context and rides along in
  // the data segment, so a restarted program resumes its numbering.
  store_.register_i64("drms.sop", &sop_counter_);
}

sim::LoadContext DrmsContext::make_load_context() const {
  sim::LoadContext load;
  const sim::Placement& placement = ctx_.placement();
  load.busy_server_fraction = placement.busy_server_fraction();
  load.per_task_resident_bytes = program_.segment_model_.total();
  load.max_tasks_per_node = placement.max_tasks_per_node();
  load.node_memory_bytes = placement.machine().node_memory_bytes;
  load.server_count = program_.env_.storage->server_count();
  return load;
}

std::vector<DistArray*> DrmsContext::array_list() const {
  const std::lock_guard<std::mutex> lock(program_.mutex_);
  std::vector<DistArray*> out;
  out.reserve(program_.arrays_.size());
  for (const auto& a : program_.arrays_) {
    out.push_back(a.get());
  }
  return out;
}

void DrmsContext::initialize() {
  DRMS_EXPECTS_MSG(!initialized_, "drms_initialize called twice");
  initialized_ = true;
  const DrmsEnv& env = program_.env_;
  if (env.adapt != nullptr && ctx_.rank() == 0) {
    // A fresh program means a fresh simulated clock: re-base the
    // controller's monotone stream clock before any observation.
    env.adapt->begin_epoch();
    env.adapt->attach_cost_stream(env.recorder);
  }
  if (env.restart_prefix.empty()) {
    ctx_.barrier();
    return;
  }

  restarted_ = true;
  just_restarted_ = true;
  RestartTiming timing;
  if (env.mode == CheckpointMode::kDrms) {
    DrmsCheckpoint engine(*env.storage, make_load_context(), env.io_tasks,
                          env.target_chunk_bytes, env.jitter, env.recorder);
    restart_meta_ = engine.restore_segment(ctx_, env.restart_prefix, store_,
                                           program_.segment_model_, timing);
  } else {
    SpmdCheckpoint engine(*env.storage, make_load_context(), env.jitter,
                          env.recorder);
    restart_meta_ = engine.restore_begin(ctx_, env.restart_prefix, store_,
                                         program_.segment_model_, timing,
                                         spmd_cursor_);
  }
  if (ctx_.rank() == 0) {
    const std::lock_guard<std::mutex> lock(program_.mutex_);
    program_.last_restart_ = timing;
    program_.restart_meta_ = restart_meta_;
  }
  restart_timing_ = timing;
  ctx_.barrier();
}

int DrmsContext::checkpoint_task_count() const noexcept {
  return restart_meta_.has_value() ? restart_meta_->task_count : 0;
}

int DrmsContext::delta() const noexcept {
  return restarted_ ? ctx_.size() - checkpoint_task_count() : 0;
}

DistArray& DrmsContext::create_array(const std::string& name,
                                     std::span<const Index> lower,
                                     std::span<const Index> upper,
                                     std::size_t elem_size) {
  const Slice box = Slice::box(lower, upper);
  const std::lock_guard<std::mutex> lock(program_.mutex_);
  for (const auto& a : program_.arrays_) {
    if (a->name() == name) {
      DRMS_EXPECTS_MSG(a->global_box() == box &&
                           a->elem_size() == elem_size,
                       "array '" + name +
                           "' re-declared with a different shape");
      return *a;
    }
  }
  program_.arrays_.push_back(std::make_unique<DistArray>(
      name, box, elem_size, program_.task_count_));
  if (program_.env_.delta && program_.env_.mode == CheckpointMode::kDrms) {
    // Delta generations need the runtime write paths logging from the
    // first mutation on; a freshly attached log starts all-dirty anyway.
    program_.arrays_.back()->enable_dirty_tracking();
  }
  return *program_.arrays_.back();
}

DistArray& DrmsContext::array(const std::string& name) {
  const std::lock_guard<std::mutex> lock(program_.mutex_);
  for (const auto& a : program_.arrays_) {
    if (a->name() == name) {
      return *a;
    }
  }
  throw support::Error("no distributed array named '" + name + "'");
}

void DrmsContext::distribute(DistArray& array, const DistSpec& spec) {
  DRMS_EXPECTS_MSG(initialized_, "call initialize() before distribute()");
  ctx_.barrier();
  if (ctx_.rank() == 0) {
    array.install_distribution(spec);
  }
  ctx_.barrier();

  if (!restarted_) {
    return;
  }
  const DrmsEnv& env = program_.env_;
  // A restarting program loads the checkpointed contents as soon as the
  // distribution is known ("array loading is delayed until the new
  // distribution is specified"). Load-once per task-local context; every
  // task evaluates the same branch, keeping the collective aligned.
  if (!loaded_arrays_.insert(array.name()).second) {
    return;
  }
  RestartTiming timing;
  if (env.mode == CheckpointMode::kDrms) {
    DrmsCheckpoint engine(*env.storage, make_load_context(), env.io_tasks,
                          env.target_chunk_bytes, env.jitter, env.recorder);
    const RetainedArray* ra =
        env.partial != nullptr && env.partial->retained != nullptr
            ? env.partial->retained->find(array.name())
            : nullptr;
    if (ra != nullptr) {
      engine.attach_io_session(env.partial->io, env.partial->io_job);
      partial_restore_array(engine, *env.partial, *ra, array, timing);
      partial_restored_ = true;
    } else {
      engine.restore_array(ctx_, env.restart_prefix, *restart_meta_, array,
                           timing);
    }
  } else {
    SpmdCheckpoint engine(*env.storage, make_load_context(), env.jitter,
                          env.recorder);
    engine.restore_array_from(spmd_cursor_, array, ctx_.rank());
    ctx_.barrier();
  }
  restart_timing_.arrays_seconds += timing.arrays_seconds;
  if (ctx_.rank() == 0) {
    const std::lock_guard<std::mutex> lock(program_.mutex_);
    program_.last_restart_.arrays_seconds += timing.arrays_seconds;
  }
}

void DrmsContext::partial_restore_array(DrmsCheckpoint& engine,
                                        const PartialRestorePlan& plan,
                                        const RetainedArray& ra,
                                        DistArray& array,
                                        RestartTiming& timing) {
  const DrmsEnv& env = program_.env_;
  const RetainedJobState& retained = *plan.retained;
  DRMS_EXPECTS_MSG(retained.valid && retained.prefix == env.restart_prefix,
                   "partial restore: retained snapshot does not match the "
                   "restart generation");
  DRMS_EXPECTS_MSG(static_cast<int>(ra.assigned.size()) == retained.t1 &&
                       static_cast<int>(ra.retained.size()) == retained.t1 &&
                       static_cast<int>(plan.slot_lost.size()) == retained.t1,
                   "partial restore: slot tables disagree");
  ctx_.barrier();
  const double t0 = ctx_.sim_time();
  obs::ScopedSpan op_span(env.recorder, "recover", "partial_restore",
                          ctx_.rank(), t0,
                          {obs::Attr::str("array", array.name()),
                           obs::Attr::num("lost_slots", plan.lost_count())});

  // (A) Lost cover: the replaced slots' assigned sections stream in from
  // the generation on storage (chain-aware per-section reads).
  std::vector<Slice> lost;
  for (int s = 0; s < retained.t1; ++s) {
    const auto us = static_cast<std::size_t>(s);
    if (plan.slot_lost[us] != 0 && !ra.assigned[us].empty()) {
      lost.push_back(ra.assigned[us]);
    }
  }
  const std::uint64_t read_bytes = engine.restore_array_sections(
      ctx_, env.restart_prefix, *restart_meta_, array, lost, timing);

  // (B) Survivor adoption: each surviving slot's retained section is
  // scattered into the new distribution's mapped slices, one adopter
  // rank per slot per round. Pure message passing — zero storage reads
  // and zero simulated I/O time; together with (A) the scattered
  // sections cover the whole box (the capture requires a fully assigned
  // distribution), so shadows come out consistent without a refresh.
  std::vector<int> survivors;
  for (int s = 0; s < retained.t1; ++s) {
    const auto us = static_cast<std::size_t>(s);
    if (plan.slot_lost[us] == 0 && !ra.assigned[us].empty()) {
      DRMS_EXPECTS_MSG(
          ra.retained[us].byte_size() ==
              static_cast<std::uint64_t>(ra.assigned[us].element_count()) *
                  array.elem_size(),
          "partial restore: surviving slot has no retained data");
      survivors.push_back(s);
    }
  }
  const int t2 = ctx_.size();
  const int me = ctx_.rank();
  const std::vector<Slice> dst_mapped = array.distribution().mapped_slices();
  const int d = array.global_box().rank();
  for (std::size_t r0 = 0; r0 < survivors.size();
       r0 += static_cast<std::size_t>(t2)) {
    const int active = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(t2), survivors.size() - r0));
    std::vector<Slice> src(static_cast<std::size_t>(t2),
                           Slice::empty_of_rank(d));
    const LocalArray* my_src = nullptr;
    for (int q = 0; q < active; ++q) {
      const auto slot =
          static_cast<std::size_t>(survivors[r0 + static_cast<std::size_t>(q)]);
      src[static_cast<std::size_t>(q)] = ra.assigned[slot];
      if (q == me) {
        my_src = &ra.retained[slot];
      }
    }
    exchange_sections(ctx_, src, my_src, dst_mapped, &array.local(me),
                      array.elem_size(), env.recorder);
  }
  ctx_.barrier();
  if (me == 0 && env.recorder != nullptr) {
    env.recorder->count("recover.partial.restore_read_bytes",
                        static_cast<std::int64_t>(read_bytes));
    env.recorder->count("recover.partial.survivor_read_bytes", 0);
    env.recorder->count("recover.partial.lost_sections",
                        static_cast<std::int64_t>(lost.size()));
    env.recorder->count("recover.partial.adopted_sections",
                        static_cast<std::int64_t>(survivors.size()));
  }
  op_span.end(ctx_.sim_time());
}

void DrmsContext::capture_retained(RetainedJobState& retain,
                                   const std::string& prefix,
                                   std::span<DistArray* const> arrays) {
  // SPMD discipline matching DeltaChainState: rank 0 lays out the slot
  // tables between barriers, then every task fills its OWN slot
  // (slot-private, so no write overlaps), and `valid` flips true only
  // after every slot landed. The copies are taken inside the same
  // collective that wrote the generation, so they are bit-identical to
  // the bytes on the volume.
  ctx_.barrier();
  if (ctx_.rank() == 0) {
    retain.valid = false;
    retain.prefix = prefix;
    retain.sop = sop_counter_;
    retain.t1 = ctx_.size();
    retain.arrays.clear();
    bool ok = true;
    for (const DistArray* a : arrays) {
      if (!a->distributed() || !a->distribution().fully_assigned()) {
        // Holes in the assignment would leave unowned cells with nothing
        // to adopt them on a partial restart; such jobs get full scope.
        ok = false;
        break;
      }
      RetainedArray ra;
      ra.name = a->name();
      ra.assigned = a->distribution().assigned_slices();
      ra.retained.resize(static_cast<std::size_t>(ctx_.size()));
      retain.arrays.push_back(std::move(ra));
    }
    if (!ok) {
      retain.invalidate();
    }
  }
  ctx_.barrier();
  if (retain.arrays.size() == arrays.size() && !arrays.empty()) {
    const int me = ctx_.rank();
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      RetainedArray& ra = retain.arrays[i];
      const Slice& mine = ra.assigned[static_cast<std::size_t>(me)];
      if (mine.empty()) {
        continue;
      }
      LocalArray copy(mine, arrays[i]->elem_size());
      std::as_const(*arrays[i]).local(me).extract(mine, copy.bytes());
      ra.retained[static_cast<std::size_t>(me)] = std::move(copy);
    }
  }
  ctx_.barrier();
  if (ctx_.rank() == 0 && retain.arrays.size() == arrays.size() &&
      !arrays.empty()) {
    retain.valid = true;
  }
}

int DrmsContext::service_steering(SteeringChannel& channel) {
  DRMS_EXPECTS_MSG(initialized_,
                   "call initialize() before service_steering()");
  // Rank 0 drains the channel and broadcasts the request DESCRIPTORS
  // (kind, array, section, payload size); store payloads stay on rank 0,
  // which is the single sequential-channel endpoint.
  ctx_.barrier();
  std::vector<std::unique_ptr<SteeringRequest>> requests;
  support::ByteBuffer descriptors;
  if (ctx_.rank() == 0) {
    requests = channel.drain();
    descriptors.put_u64(requests.size());
    for (const auto& r : requests) {
      descriptors.put_u8(r->kind == SteeringRequest::Kind::kFetch ? 0 : 1);
      descriptors.put_string(r->array);
      r->section.serialize(descriptors);
      descriptors.put_u64(r->data.size());
    }
  }
  rt::broadcast(ctx_, descriptors, 0);
  descriptors.rewind();

  const std::uint64_t count = descriptors.get_u64();
  const ArrayStreamer streamer(nullptr, {},
                               program_.env_.target_chunk_bytes,
                               /*jitter=*/false, program_.env_.recorder);
  for (std::uint64_t i = 0; i < count; ++i) {
    const bool is_store = descriptors.get_u8() == 1;
    const std::string name = descriptors.get_string();
    const Slice section = Slice::deserialize(descriptors);
    const std::uint64_t payload_size = descriptors.get_u64();

    // Validate on EVERY task from the broadcast descriptor, so all tasks
    // agree on whether to run the collective streaming operation.
    DistArray* array = nullptr;
    {
      const std::lock_guard<std::mutex> lock(program_.mutex_);
      for (const auto& a : program_.arrays_) {
        if (a->name() == name) {
          array = a.get();
          break;
        }
      }
    }
    std::string error;
    if (array == nullptr) {
      error = "no distributed array named '" + name + "'";
    } else if (!array->distributed()) {
      error = "array '" + name + "' has no distribution";
    } else if (section.rank() != array->global_box().rank() ||
               !array->global_box().covers(section)) {
      error = "section outside the index space of '" + name + "'";
    } else if (is_store &&
               payload_size !=
                   static_cast<std::uint64_t>(section.element_count()) *
                       array->elem_size()) {
      error = "store payload size does not match the section";
    }

    if (!error.empty()) {
      if (ctx_.rank() == 0) {
        requests[i]->reply.set_exception(std::make_exception_ptr(
            support::Error("steering: " + error)));
      }
      continue;
    }
    if (is_store) {
      // Rank 0 feeds the payload; everyone scatters.
      VectorSource source(ctx_.rank() == 0
                              ? std::span<const std::byte>(requests[i]->data)
                              : std::span<const std::byte>{});
      streamer.read_section_sequential(ctx_, *array, section, source);
      if (ctx_.rank() == 0) {
        requests[i]->reply.set_value({});
      }
    } else {
      std::vector<std::byte> snapshot;
      VectorSink sink(snapshot);
      streamer.write_section_sequential(ctx_, *array, section, sink);
      if (ctx_.rank() == 0) {
        requests[i]->reply.set_value(std::move(snapshot));
      }
    }
  }
  ctx_.barrier();
  return static_cast<int>(count);
}

ReconfigResult DrmsContext::reconfig_checkpoint(const std::string& prefix) {
  DRMS_EXPECTS_MSG(initialized_,
                   "call initialize() before reconfig_checkpoint()");
  if (just_restarted_) {
    just_restarted_ = false;
    return ReconfigResult{CheckpointStatus::kRestarted, delta(), false};
  }
  return do_checkpoint(prefix);
}

ReconfigResult DrmsContext::reconfig_chkenable(const std::string& prefix) {
  DRMS_EXPECTS_MSG(initialized_,
                   "call initialize() before reconfig_chkenable()");
  if (just_restarted_) {
    just_restarted_ = false;
    return ReconfigResult{CheckpointStatus::kRestarted, delta(), false};
  }
  // Collective decision: rank 0 samples-and-clears the enabling signal and
  // its hold and broadcasts both, so either every task checkpoints (and
  // parks) or none does.
  ctx_.barrier();
  support::ByteBuffer decision;
  if (ctx_.rank() == 0) {
    const auto [checkpoint, hold] = program_.take_enabling_signal();
    decision.put_bool(checkpoint);
    decision.put_bool(hold);
  }
  rt::broadcast(ctx_, decision, 0);
  decision.rewind();
  const bool checkpoint = decision.get_bool();
  const bool hold = decision.get_bool();
  if (!checkpoint) {
    return ReconfigResult{CheckpointStatus::kContinued, 0, false};
  }
  const ReconfigResult result = do_checkpoint(prefix);
  if (hold) {
    program_.park(ctx_);
  }
  return result;
}

bool DrmsContext::need_checkpoint() {
  DRMS_EXPECTS_MSG(initialized_,
                   "call initialize() before need_checkpoint()");
  adapt::IntervalController* const controller = program_.env_.adapt;
  if (controller == nullptr) {
    return true;  // no controller: the caller's fixed cadence governs
  }
  // Collective decision (same discipline as reconfig_chkenable): rank 0
  // consults the controller at its simulated clock and broadcasts, so
  // either every task checkpoints or none does.
  ctx_.barrier();
  support::ByteBuffer decision;
  if (ctx_.rank() == 0) {
    const double now = controller->to_stream_seconds(ctx_.sim_time());
    decision.put_bool(controller->need_checkpoint(now));
  }
  rt::broadcast(ctx_, decision, 0);
  decision.rewind();
  return decision.get_bool();
}

ReconfigResult DrmsContext::do_checkpoint(const std::string& prefix) {
  ++sop_counter_;
  const DrmsEnv& env = program_.env_;
  const std::vector<DistArray*> arrays = array_list();
  CheckpointTiming timing;
  if (env.mode == CheckpointMode::kDrms) {
    DrmsCheckpoint engine(*env.storage, make_load_context(), env.io_tasks,
                          env.target_chunk_bytes, env.jitter, env.recorder);
    DeltaOptions delta_opts;
    delta_opts.full_every_k = env.delta_full_every_k;
    delta_opts.block_bytes = env.delta_block_bytes;
    delta_opts.codec = env.delta_codec;
    timing = engine.write(
        ctx_, prefix, program_.app_name_, sop_counter_, store_, arrays,
        program_.segment_model_, env.delta ? &delta_opts : nullptr,
        env.delta ? &program_.delta_chain_ : nullptr);
    if (env.retain != nullptr) {
      capture_retained(*env.retain, prefix, arrays);
    }
  } else {
    SpmdCheckpoint engine(*env.storage, make_load_context(), env.jitter,
                          env.recorder);
    timing = engine.write(ctx_, prefix, program_.app_name_, sop_counter_,
                          store_, arrays, program_.segment_model_);
  }
  if (ctx_.rank() == 0) {
    const std::lock_guard<std::mutex> lock(program_.mutex_);
    program_.last_checkpoint_ = timing;
    program_.checkpoints_written_.fetch_add(1);
  }
  return ReconfigResult{CheckpointStatus::kContinued, 0, true};
}

}  // namespace drms::core
