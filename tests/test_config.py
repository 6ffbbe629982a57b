import pytest

from tlonbof import config
from tlonbof.config import RunConfig, dumps, loads, parse_seed_list
from tlonbof.errors import FormatError


def test_defaults_follow_training_protocol():
    rc = RunConfig()
    assert rc.batch_size == 128
    assert rc.epochs == 20
    assert rc.lr == 1e-4
    assert rc.window == 15
    assert rc.horizon == 10
    assert rc.threshold == 1e-4
    assert rc.n_codewords == 256
    assert rc.conv_filters == 256
    assert rc.conv_kernel == 5
    assert rc.hidden == 512
    assert rc.n_regions == 3
    assert rc.adaptive_scaling == "learned"


def test_dump_load_dump_is_byte_identical():
    text = dumps(RunConfig())
    assert dumps(loads(text)) == text


def test_round_trip_preserves_every_field():
    rc = RunConfig(batch_size=64, lr=0.00025, kernel="gaussian", deep_features=False,
                   adaptive_scaling="off", data_dir="/tmp/x", ablation_seeds="5,6")
    assert loads(dumps(rc)) == rc


def test_float_values_survive_exactly():
    rc = loads("lr = 1e-4\nthreshold = 0.0001\n")
    assert rc.lr == 1e-4 and rc.threshold == 1e-4
    again = loads(dumps(rc))
    assert again.lr == rc.lr and again.threshold == rc.threshold


def test_comments_and_blank_lines_ignored():
    rc = loads("# protocol overrides\n\nbatch_size = 32\n  # indented comment\nepochs=5\n")
    assert rc.batch_size == 32 and rc.epochs == 5


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(FormatError) as err:
        loads("batch_size = 32\nlearning_rate = 0.1\n")
    assert "learning_rate" in str(err.value) and "line 2" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(FormatError) as err:
        loads("epochs = 5\nepochs = 6\n")
    assert "duplicate" in str(err.value) and "line 2" in str(err.value)


@pytest.mark.parametrize("line,fragment", [
    ("batch_size = fast", "integer"),
    ("batch_size = 0", ">= 1"),
    ("epochs = -1", ">= 0"),
    ("lr = free", "number"),
    ("lr = 0", "positive"),
    ("lr = nan", "finite"),
    ("threshold = 1e400", "finite"),
    ("conv_kernel = 4", "odd"),
    ("deep_features = yes", "true or false"),
    ("arch = transformer", "one of"),
    ("adaptive_scaling = auto", "one of"),
    ("label_mode = next", "one of"),
    ("just a line", "key = value"),
])
def test_bad_values_rejected(line, fragment):
    with pytest.raises(FormatError) as err:
        loads(line + "\n")
    assert fragment in str(err.value)
    assert "line 1" in str(err.value)


def test_out_dir_is_no_longer_a_key():
    assert "out_dir" not in dumps(RunConfig())
    with pytest.raises(FormatError) as err:
        loads("out_dir = runs/\n")
    assert "unknown key" in str(err.value)


def test_parse_value_applies_the_schema_rule():
    assert config.parse_value("deep_features", "false", 3) is False
    assert config.parse_value("adaptive_scaling", "frozen", 3) == "frozen"
    with pytest.raises(FormatError) as err:
        config.parse_value("nested_regions", "True", 3)
    assert "true or false" in str(err.value) and "line 3" in str(err.value)


@pytest.mark.parametrize("text,window,n_regions,line", [
    ("window = 2\n", 2, 3, 1),
    ("n_regions = 4\nepochs = 1\nwindow = 3\n", 3, 4, 3),
    ("window = 3\nseed = 1\ntemporal_modeling = true\nn_regions = 4\n", 3, 4, 4),
    ("window = 2\narch = tlonbof\nepochs = 1\n", 2, 3, 2),
])
def test_window_below_n_regions_rejected(text, window, n_regions, line):
    # the error sits at the last line that set window, n_regions, temporal_modeling or arch
    with pytest.raises(FormatError) as err:
        loads(text)
    assert f"window = {window} is below n_regions = {n_regions}" in str(err.value)
    assert f"line {line}" in str(err.value)


def test_window_below_n_regions_allowed_without_temporal_modeling():
    rc = loads("window = 2\ntemporal_modeling = false\n")
    assert rc.window == 2 and rc.n_regions == 3
    # the GAP baseline averages over the whole window and makes no regions
    rc = loads("arch = cnn_gap\nwindow = 2\n")
    assert rc.window == 2 and rc.n_regions == 3 and rc.temporal_modeling
    assert loads("window = 3\nn_regions = 3\n").window == 3


def test_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    config.save_run_config(path, RunConfig(seed=9))
    assert config.load_run_config(path).seed == 9


def test_load_names_file_in_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nope = 1\n")
    with pytest.raises(FormatError) as err:
        config.load_run_config(path)
    assert "run.cfg" in str(err.value)


def test_non_utf8_file_is_format_error_at_its_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"epochs = 5\nseed = \xff\n")
    with pytest.raises(FormatError) as err:
        config.load_run_config(path)
    assert "UTF-8" in str(err.value) and "line 2" in str(err.value)


def test_parse_seed_list():
    assert parse_seed_list("0,1,2") == [0, 1, 2]
    assert parse_seed_list(" 4 , 5 ") == [4, 5]
    with pytest.raises(FormatError):
        parse_seed_list("a,b")
    with pytest.raises(FormatError):
        parse_seed_list("")


def test_write_atomic_replaces_not_appends(tmp_path):
    target = tmp_path / "out.txt"
    config.write_atomic(target, b"first")
    config.write_atomic(target, b"second")
    assert target.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]  # no temp litter
