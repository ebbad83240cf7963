/**
 * @file
 * Move-only callable with configurable inline storage.
 *
 * std::function's small-buffer optimisation (16 bytes in libstdc++)
 * is too small for the simulator's hot callbacks — a core's load
 * completion captures `this`, its issue tick and the access type —
 * so every simulated access used to heap-allocate at least one
 * closure. SmallFn inlines callables up to a chosen capacity into the
 * object itself (events then live entirely inside the event queue's
 * cells) and falls back to the heap only for oversized or
 * throwing-move captures.
 *
 * Almost every hot capture is a few pointers and integers: trivially
 * copyable and trivially destructible. Those get no manager at all —
 * a move copies the storage bytes and a destroy does nothing — so
 * handing a completion from the core through the L1 into an event
 * cell costs no indirect call per hop.
 */
#ifndef IMPSIM_COMMON_SMALL_FN_HPP
#define IMPSIM_COMMON_SMALL_FN_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace impsim {

template <typename Sig, std::size_t Capacity> class SmallFn;

/**
 * Move-only function wrapper with @p Capacity bytes of inline
 * storage. Callables that fit (and are nothrow-move-constructible)
 * are stored in place; anything else is heap-allocated.
 */
template <typename R, typename... Args, std::size_t Capacity>
class SmallFn<R(Args...), Capacity>
{
  public:
    /** Whether a callable of type @p Fn is stored in place. */
    template <typename Fn>
    static constexpr bool kInline =
        sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(std::uint64_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    /** Whether @p Fn is stored in place and moved as plain bytes,
     *  with no manager to call on a move or a destroy. */
    template <typename Fn>
    static constexpr bool kTrivial =
        kInline<Fn> && std::is_trivially_copyable_v<Fn> &&
        std::is_trivially_destructible_v<Fn>;

    SmallFn() = default;
    SmallFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallFn(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (kInline<Fn>) {
            ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(f));
            invoke_ = &invokeInline<Fn>;
            if constexpr (!kTrivial<Fn>)
                manage_ = &manageInline<Fn>;
        } else {
            ::new (static_cast<void *>(storage_))
                Fn *(new Fn(std::forward<F>(f)));
            invoke_ = &invokeHeap<Fn>;
            manage_ = &manageHeap<Fn>;
        }
    }

    SmallFn(SmallFn &&o) noexcept { take(o); }

    SmallFn &
    operator=(SmallFn &&o) noexcept
    {
        if (this != &o) {
            destroy();
            take(o);
        }
        return *this;
    }

    SmallFn &
    operator=(std::nullptr_t)
    {
        destroy();
        invoke_ = nullptr;
        manage_ = nullptr;
        return *this;
    }

    ~SmallFn() { destroy(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    /** Const like std::function's: invokes the (non-const) target. */
    R
    operator()(Args... args) const
    {
        return invoke_(storage_, std::forward<Args>(args)...);
    }

  private:
    /** Moves the callable from @p src into @p dst; @p src is dead
     *  afterwards. Passing dst == nullptr destroys @p src instead. */
    using ManageFn = void (*)(void *dst, void *src);

    template <typename Fn>
    static R
    invokeInline(void *s, Args... args)
    {
        return (*std::launder(reinterpret_cast<Fn *>(s)))(
            std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    manageInline(void *dst, void *src)
    {
        Fn *f = std::launder(reinterpret_cast<Fn *>(src));
        if (dst != nullptr)
            ::new (dst) Fn(std::move(*f));
        f->~Fn();
    }

    template <typename Fn>
    static R
    invokeHeap(void *s, Args... args)
    {
        return (**std::launder(reinterpret_cast<Fn **>(s)))(
            std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    manageHeap(void *dst, void *src)
    {
        Fn **p = std::launder(reinterpret_cast<Fn **>(src));
        if (dst != nullptr)
            ::new (dst) Fn *(*p);
        else
            delete *p;
    }

    void
    destroy()
    {
        if (manage_ != nullptr)
            manage_(nullptr, storage_);
    }

    /** Moves @p o's callable into this (empty) object; @p o ends
     *  empty. Without a manager the target is trivially copyable (or
     *  there is none), so copying the bytes moves it. */
    void
    take(SmallFn &o)
    {
        invoke_ = o.invoke_;
        manage_ = o.manage_;
        if (manage_ != nullptr)
            manage_(storage_, o.storage_);
        else
            std::memcpy(storage_, o.storage_, Capacity);
        o.invoke_ = nullptr;
        o.manage_ = nullptr;
    }

    // 8-byte alignment (not max_align_t): captures are pointers and
    // integers, and the looser requirement keeps sizeof(SmallFn) free
    // of alignment padding — an EventFn fills one 64-byte event cell.
    alignas(std::uint64_t) mutable unsigned char storage_[Capacity];
    R (*invoke_)(void *, Args...) = nullptr;
    ManageFn manage_ = nullptr;
};

} // namespace impsim

#endif // IMPSIM_COMMON_SMALL_FN_HPP
