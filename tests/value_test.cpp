// Tests of message argument values: typing, Fortran-style widening, byte
// serialization round trips, and size accounting (messages are charged real
// bytes in the shared heap).
#include "core/value.hpp"

#include "core/message.hpp"
#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace pisces::rt {
namespace {

TEST(Value, TypedAccessorsAndWidening) {
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_EQ(Value(7).as_real(), 7.0);  // INTEGER widens to REAL
  EXPECT_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_THROW((void)Value(2.5).as_int(), std::runtime_error);
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value("abc").as_str(), "abc");
  const TaskId id{2, 4, 99};
  EXPECT_EQ(Value(id).as_taskid(), id);
  EXPECT_THROW((void)Value(id).as_window(), std::runtime_error);
}

TEST(Value, RoundTripsEveryKind) {
  Window w;
  w.owner = TaskId{3, 5, 1234567890123ull};
  w.array = 42;
  w.rect = Rect{1, 2, 3, 4};
  w.array_rows = 50;
  w.array_cols = 60;
  std::vector<Value> args = {
      Value(std::int64_t{-5}),
      Value(3.25),
      Value(true),
      Value(false),
      Value(std::string("hello world")),
      Value(TaskId{1, 3, 42}),
      Value(w),
      Value(std::vector<double>{1.5, -2.5, 3.5}),
      Value(std::vector<std::int64_t>{10, -20, 30}),
      Value::list({Value(1), Value("nested"), Value::list({Value(2.0)})}),
  };
  auto bytes = encode_args(args);
  auto back = decode_args(bytes);
  ASSERT_EQ(back.size(), args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    EXPECT_TRUE(back[i] == args[i]) << "arg " << i;
  }
}

TEST(Value, EncodedSizeMatchesEncodedBytes) {
  std::vector<Value> args = {
      Value(1), Value(2.0), Value("abcdef"), Value(TaskId{1, 2, 3}),
      Value(std::vector<double>(17, 0.0)),
      Value::list({Value(1), Value(2)}),
  };
  EXPECT_EQ(encode_args(args).size(), encoded_args_size(args));
  for (const auto& v : args) {
    std::vector<std::byte> one;
    v.encode(one);
    EXPECT_EQ(one.size(), v.encoded_size());
  }
}

TEST(Value, DecodeRejectsTruncatedAndTrailing) {
  auto bytes = encode_args({Value(1), Value("xy")});
  auto truncated = bytes;
  truncated.resize(truncated.size() - 1);
  EXPECT_THROW(decode_args(truncated), std::runtime_error);
  auto trailing = bytes;
  trailing.push_back(std::byte{0});
  EXPECT_THROW(decode_args(trailing), std::runtime_error);
}

TEST(Value, DecodeRejectsLengthPrefixBeyondPacket) {
  // Each prefix claims 2^32 - 1 elements with no bytes behind it; the
  // decoder must refuse before sizing anything from it.
  const auto claim = [](std::uint8_t tag) {
    std::vector<std::byte> in{std::byte{tag}};
    for (int i = 0; i < 4; ++i) in.push_back(std::byte{0xFF});
    return in;
  };
  for (const std::uint8_t tag : {7, 8, 9}) {  // REAL array, INTEGER array, list
    SCOPED_TRACE("tag=" + std::to_string(tag));
    const std::vector<std::byte> in = claim(tag);
    std::size_t pos = 0;
    EXPECT_THROW((void)Value::decode(in, pos), std::runtime_error);
  }
  const std::vector<std::byte> count(4, std::byte{0xFF});  // argument count
  EXPECT_THROW((void)decode_args(count), std::runtime_error);
  // A prefix that does fit still decodes.
  const std::vector<std::byte> ok = encode_args({Value(std::vector<double>(3, 1.0))});
  EXPECT_EQ(decode_args(ok).at(0).as_real_array().size(), 3u);
}

TEST(Value, CopiedArraysShareStorageAndCompareByContents) {
  const Value reals(std::vector<double>(512, 1.5));
  const Value ints(std::vector<std::int64_t>{1, 2, 3});
  const Value reals_copy = reals;  // NOLINT(performance-unnecessary-copy-initialization)
  const Value ints_copy = ints;    // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(&reals_copy.as_real_array(), &reals.as_real_array());
  EXPECT_EQ(&ints_copy.as_int_array(), &ints.as_int_array());
  // A list shares the arrays it was built from.
  const Value list = Value::list({reals, ints});
  EXPECT_EQ(&list.as_list().at(0).as_real_array(), &reals.as_real_array());
  // Equal contents in separate storage are equal; different contents not.
  const Value same(std::vector<double>(512, 1.5));
  EXPECT_NE(&same.as_real_array(), &reals.as_real_array());
  EXPECT_EQ(same, reals);
  EXPECT_EQ(Value(std::vector<std::int64_t>{1, 2, 3}), ints);
  EXPECT_FALSE(Value(std::vector<double>(512, 2.5)) == reals);
  EXPECT_FALSE(Value(std::vector<std::int64_t>{1, 2}) == ints);
  EXPECT_EQ(Value::list({same, Value(std::vector<std::int64_t>{1, 2, 3})}), list);
  // Contents compare element by element even for shared storage: a NaN
  // equals nothing, not even the copy that shares it.
  const Value nan(std::vector<double>{std::numeric_limits<double>::quiet_NaN()});
  const Value nan_copy = nan;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_FALSE(nan_copy == nan);
  // Sharing changes nothing in the packed form.
  EXPECT_EQ(encode_args({reals_copy}), encode_args({same}));
  EXPECT_EQ(reals_copy.encoded_size(), 1u + 4u + 8u * 512u);
}

TEST(Value, StrRendersReadably) {
  EXPECT_EQ(Value(5).str(), "5");
  EXPECT_EQ(Value(true).str(), ".TRUE.");
  EXPECT_EQ(Value("hi").str(), "'hi'");
  EXPECT_EQ(Value(std::vector<double>(3, 0.0)).str(), "real[3]");
  EXPECT_EQ(Value(TaskId{1, 3, 9}).str(), "(1,3,9)");
}

TEST(Value, ListEqualityIsDeep) {
  EXPECT_TRUE(Value::list({Value(1), Value("a")}) ==
              Value::list({Value(1), Value("a")}));
  EXPECT_FALSE(Value::list({Value(1)}) == Value::list({Value(2)}));
  EXPECT_FALSE(Value(1) == Value(1.0));
}

// Property: randomly generated argument lists of every kind round-trip
// through the packet encoding byte-exactly, and encoded_args_size always
// matches the produced byte count.
class ValueFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValueFuzzTest, RandomArgListsRoundTrip) {
  sim::Rng rng(GetParam());
  auto random_value = [&rng](auto&& self, int depth) -> Value {
    switch (rng.below(depth > 0 ? 9 : 8)) {
      case 0: return Value(static_cast<std::int64_t>(rng.next()));
      case 1: return Value(static_cast<double>(rng.range(-1000, 1000)) / 7.0);
      case 2: return Value(rng.below(2) == 0);
      case 3: {
        std::string s;
        for (std::uint64_t i = 0; i < rng.below(40); ++i) {
          s.push_back(static_cast<char>('a' + rng.below(26)));
        }
        return Value(std::move(s));
      }
      case 4:
        return Value(TaskId{static_cast<int>(rng.below(18)) + 1,
                            static_cast<int>(rng.below(8)), rng.next() | 1});
      case 5: {
        Window w;
        w.owner = TaskId{1, 2, rng.next() | 1};
        w.array = static_cast<std::uint32_t>(rng.below(100));
        w.rect = Rect{static_cast<int>(rng.below(50)),
                      static_cast<int>(rng.below(50)),
                      static_cast<int>(rng.below(20)) + 1,
                      static_cast<int>(rng.below(20)) + 1};
        w.array_rows = 100;
        w.array_cols = 100;
        return Value(w);
      }
      case 6: {
        std::vector<double> xs(rng.below(60));
        for (auto& x : xs) x = rng.unit();
        return Value(std::move(xs));
      }
      case 7: {
        std::vector<std::int64_t> xs(rng.below(60));
        for (auto& x : xs) x = static_cast<std::int64_t>(rng.next());
        return Value(std::move(xs));
      }
      default: {
        ValueList items;
        for (std::uint64_t i = 0; i < rng.below(5); ++i) {
          items.push_back(self(self, depth - 1));
        }
        return Value::list(std::move(items));
      }
    }
  };
  for (int round = 0; round < 50; ++round) {
    std::vector<Value> args;
    for (std::uint64_t i = 0; i < rng.below(8); ++i) {
      args.push_back(random_value(random_value, 2));
    }
    auto bytes = encode_args(args);
    EXPECT_EQ(bytes.size(), encoded_args_size(args));
    auto back = decode_args(bytes);
    ASSERT_EQ(back.size(), args.size());
    for (std::size_t i = 0; i < args.size(); ++i) {
      EXPECT_TRUE(back[i] == args[i]) << "round " << round << " arg " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

TEST(Message, EncodedSizeIncludesHeaderAndArgs) {
  Message m;
  m.type = "rows";
  m.args = {Value(1), Value(std::vector<double>(100, 0.0))};
  EXPECT_EQ(m.encoded_size(),
            Message::kHeaderBytes + encoded_args_size(m.args));
  EXPECT_TRUE(is_system_type("_INITIATE"));
  EXPECT_FALSE(is_system_type("rows"));
}

}  // namespace
}  // namespace pisces::rt
