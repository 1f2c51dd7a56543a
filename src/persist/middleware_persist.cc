// Checkpoint/Restore for the event-loop middleware (DESIGN.md §11).
//
// These are member functions of core::ApolloMiddleware, compiled with
// the persistence code so the core sources never call into persist; the
// section collect/apply logic itself is persist/learned_state.cc, shared
// with the rt runtime.
#include "core/apollo_middleware.h"
#include "persist/learned_state.h"
#include "persist/snapshot.h"

namespace apollo::core {

persist::LearnedState ApolloMiddleware::LearnedStateView() {
  persist::LearnedState st;
  st.templates = &tcache_;
  st.engine = prediction_engine();
  st.config = &config_;
  st.for_each_session = [this](const persist::SessionFn& fn) {
    for (auto& [_, session] : sessions_) fn(*session);
  };
  st.with_session = [this](ClientId id, const persist::SessionFn& fn) {
    fn(SessionFor(id));
  };
  return st;
}

util::Status ApolloMiddleware::Checkpoint(const std::string& path) {
  const util::SimTime now = loop_->now();
  const std::string bytes = persist::EncodeLearnedState(
      persist::CopyLearnedState(LearnedStateView(), now),
      static_cast<uint64_t>(now));
  util::Status s = persist::WriteFileAtomic(path, bytes);
  if (s.ok() && obs_->trace.enabled()) {
    obs_->trace.Record(obs::TraceEventType::kSnapshotSaved, -1, 0,
                       obs::SkipReason::kNone, bytes.size());
  }
  return s;
}

util::Status ApolloMiddleware::Restore(const std::string& path,
                                       persist::RestoreStats* stats) {
  persist::RestoreStats local;
  persist::Snapshot snap;
  APOLLO_ASSIGN_OR_RETURN(snap, persist::ReadSnapshotFile(path));
  persist::ApplySnapshot(snap, LearnedStateView(),
                         stats != nullptr ? stats : &local, &obs_->trace);
  return util::Status::OK();
}

}  // namespace apollo::core
