/**
 * @file
 * Move-only callable with guaranteed inline storage.
 *
 * std::function's small-buffer optimization tops out at 16 bytes on
 * libstdc++; the event queue's callbacks routinely capture 24-64 bytes
 * (this + address + record index, or a completion callback plus a
 * tick), so every scheduled event was a heap allocation on the
 * simulation hot path. InplaceFunction stores the callable inline —
 * construction of an oversized callable is a compile error, never a
 * silent allocation — making schedule/dispatch allocation-free.
 *
 * Move-only by design: event callbacks are consumed exactly once, and
 * requiring copyability would forbid capturing move-only state.
 *
 * emplace() builds a callable directly in an existing object and
 * consume() invokes and destroys it through one fused thunk, so a
 * callback that lives in one place from scheduling to dispatch (the
 * event queue's nodes) pays one indirect call, not a relocate on the
 * way in, another on the way out, an invoke and a destroy.
 */

#ifndef STMS_COMMON_INPLACE_FUNCTION_HH
#define STMS_COMMON_INPLACE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace stms
{

template <typename Signature, std::size_t Capacity>
class InplaceFunction;

/** Fixed-capacity, move-only, allocation-free std::function stand-in. */
template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity>
{
  public:
    InplaceFunction() = default;
    InplaceFunction(std::nullptr_t) {}

    /** Callables this can hold: anything invocable as R(Args...)
     *  except an InplaceFunction itself (that is a move). */
    template <typename F>
    static constexpr bool kAccepts =
        !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
        std::is_invocable_r_v<R, std::decay_t<F> &, Args...>;

    template <typename F, typename = std::enable_if_t<kAccepts<F>>>
    InplaceFunction(F &&fn)
    {
        construct(std::forward<F>(fn));
    }

    InplaceFunction(InplaceFunction &&other) noexcept
    {
        moveFrom(other);
    }

    InplaceFunction &
    operator=(InplaceFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    InplaceFunction(const InplaceFunction &) = delete;
    InplaceFunction &operator=(const InplaceFunction &) = delete;

    ~InplaceFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Const like std::function's call operator; the target callable
     *  itself is invoked as non-const. */
    R
    operator()(Args... args) const
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    /** Destroy the held callable, if any, then build @p fn's callable
     *  in this object's storage: it is never relocated. */
    template <typename F, typename = std::enable_if_t<kAccepts<F>>>
    void
    emplace(F &&fn)
    {
        reset();
        construct(std::forward<F>(fn));
    }

    /** Invoke the held callable and destroy it, through one indirect
     *  call; this is empty afterwards, also if the call throws. */
    R
    consume(Args... args)
    {
        const Ops *ops = ops_;
        ops_ = nullptr;
        return ops->consume(storage_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** invoke, then destroy (also when invoke throws). */
        R (*consume)(void *, Args &&...);
        void (*relocate)(void *from, void *to) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr Ops opsFor{
        [](void *self, Args &&...args) -> R {
            return (*static_cast<Fn *>(self))(
                std::forward<Args>(args)...);
        },
        [](void *self, Args &&...args) -> R {
            struct Destroy
            {
                Fn *fn;
                ~Destroy() { fn->~Fn(); }
            } destroy{static_cast<Fn *>(self)};
            return (*destroy.fn)(std::forward<Args>(args)...);
        },
        [](void *from, void *to) noexcept {
            ::new (to) Fn(std::move(*static_cast<Fn *>(from)));
            static_cast<Fn *>(from)->~Fn();
        },
        [](void *self) noexcept { static_cast<Fn *>(self)->~Fn(); },
    };

    template <typename F>
    void
    construct(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "callable exceeds InplaceFunction capacity; "
                      "raise the capacity at the use site");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callable");
        ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(fn));
        ops_ = &opsFor<Fn>;
    }

    void
    moveFrom(InplaceFunction &other) noexcept
    {
        if (other.ops_) {
            other.ops_->relocate(other.storage_, storage_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) mutable unsigned char storage_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace stms

#endif // STMS_COMMON_INPLACE_FUNCTION_HH
