"""Trainer event API: callback dispatch, verbose shim, empty-history guard."""

import io

import pytest

from repro import make_optimizer
from repro.train import Callback, ConsoleCallback, JsonlCallback, Trainer
from repro.train.trainer import TrainResult


class Recorder(Callback):
    """Logs every hook invocation in order."""

    def __init__(self):
        self.events = []

    def on_train_begin(self, trainer):
        self.events.append(("train_begin", trainer))

    def on_step_end(self, info):
        self.events.append(("step", info))

    def on_eval(self, record):
        self.events.append(("eval", record))

    def on_epoch_end(self, record):
        self.events.append(("epoch_end", record))

    def on_train_end(self, result):
        self.events.append(("train_end", result))


@pytest.fixture()
def trainer(cu_model, cu_dataset):
    opt = make_optimizer("fekf", cu_model, blocksize=1024)
    return Trainer(cu_model, opt, cu_dataset, None, batch_size=8, seed=0,
                   eval_frames=4)


class TestDispatch:
    def test_event_order_and_counts(self, trainer):
        rec = Recorder()
        result = trainer.run(max_epochs=2, callbacks=[rec])
        kinds = [k for k, _ in rec.events]
        assert kinds[0] == "train_begin"
        assert kinds[-1] == "train_end"
        # the loader drops the last partial batch
        n_batches = trainer.train_set.n_frames // trainer.batch_size
        assert kinds.count("step") == 2 * n_batches
        # one end-of-epoch eval per epoch; each fires on_eval then on_epoch_end
        assert kinds.count("eval") == 2
        assert kinds.count("epoch_end") == 2
        assert rec.events[0][1] is trainer
        assert rec.events[-1][1] is result

    def test_step_info_contents(self, trainer):
        rec = Recorder()
        trainer.run(max_epochs=1, callbacks=[rec])
        infos = [e for k, e in rec.events if k == "step"]
        assert [i.batch_index for i in infos] == list(range(1, len(infos) + 1))
        first = infos[0]
        assert first.epoch == 1
        assert first.n_batches == len(infos)
        assert first.step_seconds > 0
        assert "lambda" in first.stats  # FEKF per-batch diagnostics

    def test_mid_epoch_evals_fire_on_eval_not_epoch_end(self, cu_model, cu_dataset):
        opt = make_optimizer("fekf", cu_model, blocksize=1024)
        t = Trainer(cu_model, opt, cu_dataset, None, batch_size=4, seed=0,
                    eval_frames=4, evals_per_epoch=2)
        rec = Recorder()
        t.run(max_epochs=1, callbacks=[rec])
        kinds = [k for k, _ in rec.events]
        assert kinds.count("eval") == 2  # mid-epoch + end-of-epoch
        assert kinds.count("epoch_end") == 1

    def test_run_without_callbacks_unchanged(self, trainer):
        result = trainer.run(max_epochs=1)
        assert len(result.history) == 1


class TestConsoleShim:
    def test_verbose_equals_console_callback(self, cu_model, cu_dataset):
        opt = make_optimizer("fekf", cu_model, blocksize=1024)
        lines = []
        cb = ConsoleCallback(printer=lines.append)
        Trainer(cu_model, opt, cu_dataset, None, batch_size=8, seed=0,
                eval_frames=4).run(max_epochs=1, callbacks=[cb])
        assert len(lines) == 1
        assert lines[0].startswith("epoch    1  train E/F rmse ")

    def test_verbose_true_appends_console(self, trainer, capsys):
        trainer.run(max_epochs=1, verbose=True)
        out = capsys.readouterr().out
        assert "train E/F rmse" in out


class TestJsonlCallback:
    def test_streams_every_eval(self, trainer):
        import json

        buf = io.StringIO()
        trainer.run(max_epochs=2, callbacks=[JsonlCallback(buf)])
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert len(lines) == 2
        assert lines[0]["type"] == "eval"
        assert lines[0]["epoch"] == 1
        assert lines[1]["epoch"] == 2


class TestEmptyHistory:
    """Regression: .final / .best_total on a run that never evaluated used
    to raise a bare IndexError / ValueError from deep inside."""

    def test_final_raises_clear_error(self):
        with pytest.raises(RuntimeError, match="no evaluations recorded"):
            TrainResult().final

    def test_best_total_raises_clear_error(self):
        with pytest.raises(RuntimeError, match="no evaluations recorded"):
            TrainResult().best_total()

    def test_zero_epoch_run_raises_on_final(self, trainer):
        result = trainer.run(max_epochs=0)
        assert result.history == []
        with pytest.raises(RuntimeError, match="no evaluations recorded"):
            result.final
