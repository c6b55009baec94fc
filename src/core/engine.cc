#include "core/engine.hh"

namespace dsearch {

Engine::Engine(const FileSystem &fs, std::string root)
    : _fs(&fs), _root(std::move(root))
{
}

Engine
Engine::open(const FileSystem &fs, std::string root)
{
    return Engine(fs, std::move(root));
}

Engine &
Engine::organization(Implementation impl)
{
    _cfg.impl = impl;
    return *this;
}

Engine &
Engine::threads(unsigned x, unsigned y, unsigned z)
{
    _cfg.extractors = x;
    _cfg.updaters = y;
    _cfg.joiners = z;
    return *this;
}

Engine &
Engine::tokenizer(TokenizerOptions opts)
{
    _opts = opts;
    return *this;
}

Engine &
Engine::distribution(DistributionKind kind)
{
    _cfg.distribution = kind;
    return *this;
}

Engine &
Engine::enBloc(bool en_bloc)
{
    _cfg.en_bloc = en_bloc;
    return *this;
}

Engine &
Engine::lockShards(std::size_t shards)
{
    _cfg.lock_shards = shards;
    return *this;
}

Engine &
Engine::pipelinedStage1(bool pipelined)
{
    _cfg.pipelined_stage1 = pipelined;
    return *this;
}

Engine &
Engine::queueCapacity(std::size_t capacity)
{
    _cfg.queue_capacity = capacity;
    return *this;
}

Engine &
Engine::config(const Config &cfg)
{
    _cfg = cfg;
    return *this;
}

Engine::Result
Engine::build() const
{
    Config cfg = _cfg;
    // Ergonomics the Config factories used to provide: a join without
    // joiners means "one joiner", not a validation failure.
    if (cfg.impl == Implementation::ReplicatedJoin && cfg.joiners == 0)
        cfg.joiners = 1;

    IndexGenerator generator(*_fs, _root, cfg, _opts);
    BuildResult built = generator.build(BuildOutput::Snapshot);
    Result result;
    result.snapshot = std::move(built.snapshot);
    result.config = built.config;
    result.docs = std::move(built.docs);
    result.times = built.times;
    result.extraction = built.extraction;
    return result;
}

} // namespace dsearch
