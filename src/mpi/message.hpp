#pragma once

/// \file message.hpp
/// Message and receive-slot types for the MPI-like layer.
///
/// Payloads carry *structured simulation data* (work assignments, score
/// lists, offset lists); the `bytes` field is what the network model
/// charges for.  This mirrors how S3aSim itself works: it moves real MPI
/// messages whose contents are synthetic.  Unlike `std::any`, the payload
/// box stores small nothrow-movable types inline (every payload the
/// simulator sends — score tuples, assignment headers, vectors of extents —
/// fits), so posting a message performs no allocation.

#include <any>  // std::bad_any_cast, kept as the mismatch exception type
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "sim/gate.hpp"
#include "sim/scheduler.hpp"

namespace s3asim::mpi {

using Rank = std::uint32_t;
using Tag = std::int32_t;

/// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr Rank kAnySource = 0xffffffffu;
inline constexpr Tag kAnyTag = -1;

/// Type-erased move-only payload box with small-buffer storage.
///
/// Types up to `kInlineSize` bytes that are nothrow-move-constructible live
/// directly in the message (relocated by move on queue shuffles); larger or
/// throwing-move types fall back to one heap box, preserving `std::any`
/// semantics.  Access is via `as<T>()`, which throws `std::bad_any_cast` on
/// a type mismatch exactly as the `std::any`-based payload did.
class Payload {
 public:
  /// Covers every payload the simulator ships: MasterMsg (two words of ids
  /// plus a vector), ScoresMsg (four words), std::string, scalars.
  static constexpr std::size_t kInlineSize = 48;

  Payload() noexcept = default;

  template <class T, class D = std::decay_t<T>,
            class = std::enable_if_t<!std::is_same_v<D, Payload>>>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor): mirrors any
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<T>(value));
      ops_ = &kOps<D, /*Inline=*/true>;
    } else {
      ::new (static_cast<void*>(storage_))
          D*(new D(std::forward<T>(value)));
      ops_ = &kOps<D, /*Inline=*/false>;
    }
  }

  Payload(Payload&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this == &other) return *this;
    reset();
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
    return *this;
  }

  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;

  ~Payload() { reset(); }

  [[nodiscard]] bool has_value() const noexcept { return ops_ != nullptr; }

  /// Typed access; throws std::bad_any_cast on mismatch (as std::any did).
  template <class T>
  [[nodiscard]] const T& as() const {
    if (ops_ == nullptr || *ops_->type != typeid(T)) throw std::bad_any_cast();
    if constexpr (stores_inline<T>) {
      return *std::launder(reinterpret_cast<const T*>(storage_));
    } else {
      return **std::launder(reinterpret_cast<T* const*>(storage_));
    }
  }

 private:
  template <class T>
  static constexpr bool stores_inline =
      sizeof(T) <= kInlineSize && alignof(T) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<T>;

  struct Ops {
    /// Move-constructs dst from src and destroys src's object.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* obj) noexcept;
    const std::type_info* type;
  };

  template <class T, bool Inline>
  static constexpr Ops kOps{
      [](void* dst, void* src) noexcept {
        if constexpr (Inline) {
          T* object = std::launder(reinterpret_cast<T*>(src));
          ::new (dst) T(std::move(*object));
          object->~T();
        } else {
          ::new (dst) T*(*std::launder(reinterpret_cast<T**>(src)));
        }
      },
      [](void* obj) noexcept {
        if constexpr (Inline) {
          std::launder(reinterpret_cast<T*>(obj))->~T();
        } else {
          delete *std::launder(reinterpret_cast<T**>(obj));
        }
      },
      &typeid(T)};

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize]{};
  const Ops* ops_ = nullptr;
};

struct Message {
  Rank source = 0;
  Tag tag = 0;
  std::uint64_t bytes = 0;
  /// Set when the matching receive was torn down via Comm::cancel_posted
  /// (MPI_Cancel): no data arrived; receivers must check before `as<T>()`.
  bool cancelled = false;
  Payload payload{};

  /// Typed payload access; throws std::bad_any_cast on mismatch.
  template <class T>
  [[nodiscard]] const T& as() const {
    return payload.as<T>();
  }
};

/// Completion state of one receive: a gate plus the slot the matched
/// message lands in.  A blocking `recv` keeps one inside its awaiter, in
/// the awaiting coroutine's frame.
class RequestState {
 public:
  explicit RequestState(sim::Scheduler& scheduler) : gate_(scheduler) {}

  void mark_complete() { gate_.open(); }

  [[nodiscard]] sim::Gate& gate() noexcept { return gate_; }

  /// The matched message (valid once the gate is open).
  Message message{};

 private:
  sim::Gate gate_;
};

}  // namespace s3asim::mpi
