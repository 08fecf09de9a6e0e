// Checkpoint and restart (the persistence tier, src/ats/persist): a
// node sketches a key stream, checkpoints on a cadence, dies -- losing
// every in-memory byte -- and recovers by restoring the last durable
// checkpoint through the zero-copy mmap open path, then replaying only
// the short log tail the checkpoint had not yet absorbed. The recovered
// sketch is BIT-IDENTICAL to one that never crashed, so the estimate is
// identical too; and a corrupted checkpoint is rejected with a typed
// reason, falling back to full-log replay instead of a wrong answer.
//
// Build & run:  ./build/examples/checkpoint_restart
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ats/cluster/node.h"
#include "ats/core/random.h"
#include "ats/persist/checkpoint.h"
#include "ats/sketch/kmv.h"

int main() {
  using namespace ats;
  using cluster::AgentNode;

  const std::string path = "/tmp/ats_checkpoint_restart_demo.ckp";

  // An agent with checkpoint-on-cadence: every 4096 ingested keys the
  // node atomically rewrites `path` with its cumulative sketch and
  // truncates its replay log to empty -- the log stays bounded by the
  // cadence instead of growing with the stream.
  AgentNode agent(/*id=*/1, /*k=*/1024, /*salt=*/2022,
                  cluster::RetryPolicy{});
  agent.ConfigureCheckpoint({path, /*every_epochs=*/4096});

  Xoshiro256 rng(7);
  std::vector<uint64_t> batch(512);
  for (int b = 0; b < 50; ++b) {  // 25600 keys; last checkpoint at 24576
    for (auto& k : batch) k = rng.NextBelow(40000);
    agent.Ingest(batch);
    agent.MaybeCheckpoint();
  }

  const std::string before_crash = agent.sketch().SerializeToString();
  std::printf("ingested %llu keys, estimate %.0f distinct\n",
              static_cast<unsigned long long>(agent.epoch()),
              agent.sketch().Estimate());
  std::printf("checkpoints written: %llu; replay log holds only the "
              "%zu-key tail past epoch %llu\n\n",
              static_cast<unsigned long long>(agent.checkpoints_written()),
              agent.log().size(),
              static_cast<unsigned long long>(agent.checkpoint_epoch()));

  // The crash: the process dies. Sketch and outbox are gone; only the
  // checkpoint file and the durable log tail survive.
  agent.Crash(/*now=*/0, /*down_ticks=*/0);
  std::printf("CRASH -- in-memory sketch lost\n");

  // Recovery: restore the checkpoint (mmap + validate + deserialize),
  // then replay the log suffix past its covered epoch.
  agent.MaybeRestart(/*now=*/0);
  std::printf("restored from checkpoint (%llu restore, %llu failures), "
              "replayed %llu-key tail\n",
              static_cast<unsigned long long>(agent.checkpoint_restores()),
              static_cast<unsigned long long>(
                  agent.checkpoint_restore_failures()),
              static_cast<unsigned long long>(agent.epoch() -
                                              agent.checkpoint_epoch()));
  std::printf("estimate after recovery: %.0f  (bit-identical state: %s)\n\n",
              agent.sketch().Estimate(),
              agent.sketch().SerializeToString() == before_crash ? "yes"
                                                                 : "NO");

  // Fail-closed: flip one byte in the checkpoint file. The open path
  // classifies the damage with a typed reason and refuses to restore --
  // the target sketch is left untouched, never half-assigned.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x04;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  KmvSketch victim(1024, 1.0, 2022);
  const std::string untouched = victim.SerializeToString();
  const persist::CheckpointFault fault = persist::RestoreFromCheckpoint(
      path, persist::SchemeKind::kKmv, &victim);
  std::printf("bit-flipped checkpoint rejected: \"%s\" "
              "(target untouched: %s)\n\n",
              persist::CheckpointFaultName(fault),
              victim.SerializeToString() == untouched ? "yes" : "NO");

  // An agent facing that poisoned file fails closed the same way: the
  // typed rejection makes it ignore the file entirely and replay its
  // durable log instead -- slower, never wrong. (This agent never
  // reached its cadence, so its log still holds the whole stream; once
  // a checkpoint truncates the log, the atomic write-rename in
  // CheckpointWriter is what guarantees the file stays whole.)
  AgentNode skeptic(/*id=*/2, /*k=*/1024, /*salt=*/2022,
                    cluster::RetryPolicy{});
  skeptic.ConfigureCheckpoint({path, /*every_epochs=*/1u << 30});
  Xoshiro256 rng2(7);
  for (int b = 0; b < 50; ++b) {
    for (auto& k : batch) k = rng2.NextBelow(40000);
    skeptic.Ingest(batch);
  }
  const std::string skeptic_before = skeptic.sketch().SerializeToString();
  skeptic.Crash(/*now=*/1, /*down_ticks=*/0);
  skeptic.MaybeRestart(/*now=*/1);
  std::printf("agent facing the poisoned file: restore rejected "
              "(reason \"%s\"), full-log replay bit-identical: %s\n",
              persist::CheckpointFaultName(skeptic.last_restore_fault()),
              skeptic.sketch().SerializeToString() == skeptic_before
                  ? "yes"
                  : "NO");
  return 0;
}
