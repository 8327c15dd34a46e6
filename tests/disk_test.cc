// Unit tests for the disk substrate: block devices, service serialization,
// mirroring, dual-ported attachment, failure behaviour.

#include <gtest/gtest.h>

#include <vector>

#include "src/disk/disk.h"
#include "src/sim/engine.h"

namespace auragen {
namespace {

TEST(BlockDevice, WriteThenRead) {
  Engine engine;
  BlockDevice disk(engine, DiskConfig{});
  Bytes data{1, 2, 3, 4};
  bool wrote = false;
  disk.Write(5, data, [&](Result<void> r) {
    EXPECT_TRUE(r.ok());
    wrote = true;
  });
  engine.Run();
  EXPECT_TRUE(wrote);

  Bytes got;
  disk.Read(5, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  engine.Run();
  EXPECT_EQ(got, data);
}

TEST(BlockDevice, RequestsServeInOrder) {
  Engine engine;
  BlockDevice disk(engine, DiskConfig{});
  std::vector<int> order;
  disk.Write(1, Bytes{1}, [&](Result<void>) { order.push_back(1); });
  disk.Write(2, Bytes{2}, [&](Result<void>) { order.push_back(2); });
  disk.Read(1, [&](Result<Bytes>) { order.push_back(3); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(BlockDevice, FailedDeviceReturnsIo) {
  Engine engine;
  BlockDevice disk(engine, DiskConfig{});
  disk.Fail();
  Errc err = Errc::kOk;
  disk.Read(0, [&](Result<Bytes> r) { err = r.error(); });
  engine.Run();
  EXPECT_EQ(err, Errc::kIo);
}

TEST(BlockDevice, TimingScalesWithBytes) {
  Engine engine;
  DiskConfig config;
  BlockDevice disk(engine, config);
  disk.Write(0, Bytes(8, 0), [](Result<void>) {});
  engine.Run();
  SimTime small = engine.Now();
  disk.Write(0, Bytes(512, 0), [](Result<void>) {});
  engine.Run();
  EXPECT_GT(engine.Now() - small, small);
}

TEST(BlockDevice, OutOfRangePanics) {
  Engine engine;
  DiskConfig config;
  config.num_blocks = 4;
  BlockDevice disk(engine, config);
  EXPECT_DEATH(disk.Read(4, [](Result<Bytes>) {}), "past end");
}

TEST(MirroredDisk, WritesBothDrives) {
  Engine engine;
  MirroredDisk disk(engine, DiskConfig{}, 0, 1);
  disk.Write(3, Bytes{9, 9}, [](Result<void> r) { EXPECT_TRUE(r.ok()); });
  engine.Run();
  EXPECT_EQ(disk.drive(0).PeekBlock(3), (Bytes{9, 9}));
  EXPECT_EQ(disk.drive(1).PeekBlock(3), (Bytes{9, 9}));
}

TEST(MirroredDisk, SurvivesSingleDriveFailure) {
  Engine engine;
  MirroredDisk disk(engine, DiskConfig{}, 0, 1);
  disk.Write(3, Bytes{5}, [](Result<void>) {});
  engine.Run();
  disk.drive(0).Fail();

  Bytes got;
  disk.Read(3, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  engine.Run();
  EXPECT_EQ(got, Bytes{5});

  // Writes keep landing on the survivor.
  disk.Write(4, Bytes{6}, [](Result<void> r) { EXPECT_TRUE(r.ok()); });
  engine.Run();
  EXPECT_EQ(disk.drive(1).PeekBlock(4), Bytes{6});
}

TEST(MirroredDisk, DoubleFailureReportsIo) {
  Engine engine;
  MirroredDisk disk(engine, DiskConfig{}, 0, 1);
  disk.drive(0).Fail();
  disk.drive(1).Fail();
  Errc err = Errc::kOk;
  disk.Write(0, Bytes{1}, [&](Result<void> r) { err = r.error(); });
  engine.Run();
  EXPECT_EQ(err, Errc::kIo);
}

TEST(MirroredDisk, DoubleFailureAnswersFromAnEventNotInsideTheCall) {
  // A caller's completion must never run inside its own request: the kernel
  // would otherwise re-enter a syscall from within it. With both drives
  // dead, every kind of request fails with kIo from a later event.
  Engine engine;
  MirroredDisk disk(engine, DiskConfig{}, 0, 1);
  disk.drive(0).Fail();
  disk.drive(1).Fail();
  std::vector<Errc> errs;
  disk.Read(0, [&](Result<Bytes> r) { errs.push_back(r.error()); });
  disk.Write(0, Bytes{1}, [&](Result<void> r) { errs.push_back(r.error()); });
  disk.WriteMulti({{1, Bytes{2}}}, [&](Result<void> r) { errs.push_back(r.error()); });
  EXPECT_TRUE(errs.empty());
  EXPECT_EQ(engine.Run(), 3u);
  EXPECT_EQ(errs, (std::vector<Errc>{Errc::kIo, Errc::kIo, Errc::kIo}));
  EXPECT_EQ(engine.Now(), 0u);  // at the instant of the request
}

TEST(MirroredDisk, DualPortedAttachment) {
  Engine engine;
  MirroredDisk disk(engine, DiskConfig{}, 2, 5);
  EXPECT_TRUE(disk.AttachedTo(2));
  EXPECT_TRUE(disk.AttachedTo(5));
  EXPECT_FALSE(disk.AttachedTo(3));
  EXPECT_EQ(disk.OtherPort(2), 5u);
  EXPECT_EQ(disk.OtherPort(5), 2u);
}

}  // namespace
}  // namespace auragen
